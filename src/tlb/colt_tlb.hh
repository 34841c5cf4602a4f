/**
 * @file
 * CoLT-style coalesced TLB (Pham et al., MICRO 2012) -- the paper's
 * second baseline.
 *
 * CoLT exploits the buddy allocator's natural tendency to hand out
 * clusters of contiguous frames: one TLB entry maps a run of up to
 * kClusterPages contiguous base pages whose frames are also contiguous.
 * The set-associative variant (CoLT-SA) indexes by the aligned cluster
 * number so all pages of one cluster share a set; each entry records the
 * run's start/length within its cluster.  Coalescing is detected at fill
 * time by probing neighbouring PTEs (done by the MMU, which has page-table
 * access; see sim/mmu.cc).
 */

#ifndef TPS_TLB_COLT_TLB_HH
#define TPS_TLB_COLT_TLB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "tlb/tlb_entry.hh"
#include "util/logging.hh"

namespace tps::tlb {

/** One coalesced entry mapping a contiguous base-page run. */
struct ColtEntry
{
    bool valid = false;
    Vpn startVpn = 0;    //!< first base page of the run
    unsigned length = 0; //!< pages in the run (1..kClusterPages)
    Pfn startPfn = 0;    //!< frame of startVpn; run is frame-contiguous
    bool writable = false;
    bool user = false;
    uint64_t lastUse = 0;

    bool
    covers(Vpn vpn) const
    {
        return valid && vpn >= startVpn && vpn < startVpn + length;
    }
};

/** A set-associative coalesced TLB. */
class ColtTlb
{
  public:
    /** Maximum pages coalesced into one entry (the cluster size). */
    static constexpr unsigned kClusterPages = 8;

    /**
     * @param entries  Total entries.
     * @param ways     Associativity.
     */
    ColtTlb(unsigned entries, unsigned ways);

    /** Look up @p va; LRU touched on a hit. */
    ColtEntry *
    lookup(Vaddr va)
    {
        ++tick_;
        Vpn vpn = vm::vpnOf(va);
        unsigned set = setIndex(vpn);
        ColtEntry *base = &entries_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            ColtEntry &e = base[w];
            if (e.covers(vpn)) {
                e.lastUse = tick_;
                return &e;
            }
        }
        return nullptr;
    }

    /** Probe without disturbing state. */
    const ColtEntry *probe(Vaddr va) const;

    /** Install a coalesced run (must stay within one aligned cluster). */
    void fill(const ColtEntry &entry);

    /** Invalidate entries containing @p va. */
    void invalidate(Vaddr va);

    /** Invalidate everything. */
    void flush();

    /** Translate @p va through @p entry (must cover it). */
    static Paddr
    translate(Vaddr va, const ColtEntry &entry)
    {
        Vpn vpn = vm::vpnOf(va);
        tps_assert(entry.covers(vpn));
        Pfn pfn = entry.startPfn + (vpn - entry.startVpn);
        return (pfn << vm::kBasePageBits) +
               vm::pageOffset(va, vm::kBasePageBits);
    }

    unsigned sets() const { return sets_; }
    unsigned occupancy() const;

    /** Mean pages per valid entry (coalescing factor). */
    double coalescingFactor() const;

    /** Visit every valid run without disturbing state. */
    void
    forEachRun(const std::function<void(const ColtEntry &)> &visit) const
    {
        for (const ColtEntry &e : entries_)
            if (e.valid)
                visit(e);
    }

  private:
    unsigned
    setIndex(Vpn vpn) const
    {
        // Index by cluster number so a whole coalesced run lives in
        // one set.
        return static_cast<unsigned>((vpn / kClusterPages) &
                                     (sets_ - 1));
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<ColtEntry> entries_;
    uint64_t tick_ = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_COLT_TLB_HH
