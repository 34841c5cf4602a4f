/**
 * @file
 * Range TLB for the Redundant Memory Mappings (RMM) baseline
 * (Karakostas et al., ISCA 2015), as described in the paper's Sec. V.
 *
 * Each entry is a segment-like range translation: [baseVpn, limitVpn]
 * mapped with a constant VPN->PFN offset.  The range TLB sits at the L2
 * level and is probed in parallel with the STLB on an L1 miss; a hit
 * constructs the base-page PTE, which is then installed into the L1 TLB.
 * Because each 4 KB page still occupies its own L1 entry, RMM eliminates
 * page walks but not L1 TLB misses -- exactly the contrast TPS draws.
 */

#ifndef TPS_TLB_RANGE_TLB_HH
#define TPS_TLB_RANGE_TLB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "tlb/tlb_entry.hh"

namespace tps::tlb {

/** One cached range translation (a Range Table Entry). */
struct RangeEntry
{
    bool valid = false;
    Vpn baseVpn = 0;    //!< first base page of the range
    Vpn limitVpn = 0;   //!< last base page of the range (inclusive)
    int64_t offset = 0; //!< pfn = vpn + offset
    bool writable = false;
    bool user = false;
    uint64_t lastUse = 0;

    bool
    covers(Vpn vpn) const
    {
        return valid && vpn >= baseVpn && vpn <= limitVpn;
    }
};

/** The fully associative range TLB. */
class RangeTlb
{
  public:
    /** @param entries  Range-entry capacity (paper-scale: 32). */
    explicit RangeTlb(unsigned entries);

    /** Look up the range covering @p va; LRU touched on a hit. */
    RangeEntry *lookup(Vaddr va);

    /** Probe without disturbing state. */
    const RangeEntry *probe(Vaddr va) const;

    /** Install a range translation (LRU replacement). */
    void fill(const RangeEntry &entry);

    /** Drop ranges covering @p va. */
    void invalidate(Vaddr va);

    /** Drop everything. */
    void flush();

    /** Synthesize the base-page TLB entry for @p va from range @p r. */
    static TlbEntry makeBasePageEntry(Vaddr va, const RangeEntry &r);

    unsigned capacity() const { return static_cast<unsigned>(ranges_.size()); }
    unsigned occupancy() const;

    /** Visit every valid range without disturbing state. */
    void
    forEachRange(const std::function<void(const RangeEntry &)> &visit) const
    {
        for (const RangeEntry &e : ranges_)
            if (e.valid)
                visit(e);
    }

  private:
    std::vector<RangeEntry> ranges_;
    uint64_t tick_ = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_RANGE_TLB_HH
