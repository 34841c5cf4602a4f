/**
 * @file
 * Interface for any-page-size L1 TLB structures.  The paper's primary
 * design is a 32-entry fully associative TLB (Sec. III-A2); it also
 * notes that skewed-associative designs (Seznec; Papadopoulou et al.)
 * are possible.  Both are provided behind this interface so the
 * hierarchy (and the ablation bench) can swap them.
 */

#ifndef TPS_TLB_ANY_SIZE_TLB_HH
#define TPS_TLB_ANY_SIZE_TLB_HH

#include <functional>

#include "tlb/tlb_entry.hh"

namespace tps::tlb {

/** An L1 TLB able to hold entries of every page size. */
class AnySizeTlb
{
  public:
    virtual ~AnySizeTlb() = default;

    /** Look up @p va; replacement state touched on a hit. */
    virtual TlbEntry *lookup(Vaddr va) = 0;

    /** Probe without disturbing state. */
    virtual const TlbEntry *probe(Vaddr va) const = 0;

    /** Mutable probe (A/D updates after a fill). */
    virtual TlbEntry *findMutable(Vaddr va) = 0;

    /** Install @p entry. @return the slot it now occupies. */
    virtual TlbEntry *fill(const TlbEntry &entry) = 0;

    /**
     * fill(@p entry) followed by findMutable(@p base) as one operation:
     * the returned slot is the first in probe order covering @p base
     * after the install, which may be a stale smaller entry shadowing
     * the new fill (the A/D-target subtlety in installL1).  Structures
     * override this to fuse the two scans; semantics are exactly the
     * two calls in sequence.
     */
    virtual TlbEntry *
    fillAndFind(const TlbEntry &entry, Vaddr base)
    {
        fill(entry);
        return findMutable(base);
    }

    /** Invalidate any entry whose page contains @p va. */
    virtual void invalidate(Vaddr va) = 0;

    /** Invalidate everything. */
    virtual void flush() = 0;

    virtual unsigned capacity() const = 0;
    virtual unsigned occupancy() const = 0;

    /** Visitor over valid entries (invariant checking / census). */
    using EntryVisitor = std::function<void(const TlbEntry &)>;

    /** Visit every valid entry without disturbing state. */
    virtual void forEachEntry(const EntryVisitor &visit) const = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_ANY_SIZE_TLB_HH
