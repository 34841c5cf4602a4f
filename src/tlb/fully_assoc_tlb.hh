/**
 * @file
 * Fully associative, LRU, any-page-size TLB -- the TPS L1 TLB (Fig. 7).
 *
 * Every entry carries a page-mask field populated at fill time; lookups
 * mask the incoming VPN with each entry's mask before the CAM compare.
 * The paper argues this adds one gate delay and that a 32-entry instance
 * meets L1 timing (AMD Zen ships a 64-entry any-size L1 DTLB).
 */

#ifndef TPS_TLB_FULLY_ASSOC_TLB_HH
#define TPS_TLB_FULLY_ASSOC_TLB_HH

#include <cstdint>
#include <vector>

#include "tlb/any_size_tlb.hh"

namespace tps::tlb {

/** A fully associative any-size TLB. */
class FullyAssocTlb : public AnySizeTlb
{
  public:
    /** @param entries  Entry count. */
    explicit FullyAssocTlb(unsigned entries);

    /** Look up @p va; LRU touched on hit. */
    TlbEntry *
    lookup(Vaddr va) override
    {
        ++tick_;
        Vpn vpn = vm::vpnOf(va);
        // Hot compare over the packed (mask, tag) arrays; invalid
        // slots carry the unreachable sentinel tag so no valid bit
        // is consulted here.
        size_t n = tags_.size();
        for (size_t i = 0; i < n; ++i) {
            if ((vpn & ~masks_[i]) == tags_[i]) {
                lastUses_[i] = tick_;
                return &entries_[i];
            }
        }
        return nullptr;
    }

    /** Probe without disturbing LRU. */
    const TlbEntry *probe(Vaddr va) const override;

    /** Mutable probe (for A/D updates after a fill). */
    TlbEntry *
    findMutable(Vaddr va) override
    {
        return const_cast<TlbEntry *>(
            static_cast<const FullyAssocTlb *>(this)->probe(va));
    }

    /**
     * Install @p entry, replacing the LRU entry if full.
     * @return the slot it now occupies.
     */
    TlbEntry *fill(const TlbEntry &entry) override;

    /** Single-pass fused fill + probe (see AnySizeTlb::fillAndFind). */
    TlbEntry *fillAndFind(const TlbEntry &entry, Vaddr base) override;

    /** Invalidate any entry whose page contains @p va. */
    void invalidate(Vaddr va) override;

    /** Invalidate everything. */
    void flush() override;

    unsigned capacity() const override
    {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned occupancy() const override;

    /** Entries, for inspection by tests and the page-size census. */
    const std::vector<TlbEntry> &entries() const { return entries_; }

    void
    forEachEntry(const EntryVisitor &visit) const override
    {
        for (const TlbEntry &e : entries_)
            if (e.valid)
                visit(e);
    }

  private:
    /** Sentinel tag no VPN can equal (VPNs use < 64 bits). */
    static constexpr Vpn kInvalidTag = ~Vpn(0);

    /**
     * Mirror entries_[i]'s tag state into the packed arrays and set its
     * LRU stamp to @p stamp.  Invalid slots take stamp 0 -- below every
     * valid stamp (ticks start at 1) -- so the fill victim scan is a
     * plain first-minimum over lastUses_ with no separate invalid check.
     */
    void
    syncSlot(size_t i, uint64_t stamp)
    {
        const TlbEntry &e = entries_[i];
        masks_[i] = e.valid ? e.vpnMask : 0;
        tags_[i] = e.valid ? e.vpnTag : kInvalidTag;
        lastUses_[i] = e.valid ? stamp : 0;
    }

    std::vector<TlbEntry> entries_;
    // Structure-of-arrays shadow of (vpnMask, vpnTag) for the CAM
    // compare; kept in sync by fill/invalidate/flush.
    std::vector<uint64_t> masks_;
    std::vector<Vpn> tags_;
    //! Per-slot LRU stamp (0 = invalid) for the fill victim scan.
    std::vector<uint64_t> lastUses_;
    uint64_t tick_ = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_FULLY_ASSOC_TLB_HH
