/**
 * @file
 * MMU front-end: ties the TLB hierarchy, MMU caches, hardware walker,
 * demand-fault path, A/D-bit maintenance, CoLT fill-time coalescing and
 * RMM range-TLB refill into the single translate-one-access operation
 * the engine drives.
 */

#ifndef TPS_SIM_MMU_HH
#define TPS_SIM_MMU_HH

#include <cstdint>
#include <map>
#include <memory>

#include "os/address_space.hh"
#include "sim/memsys.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/ad_bitvector.hh"
#include "vm/mmu_cache.hh"
#include "vm/walker.hh"

namespace tps::obs {
class EventTrace;
class ProfileRegistry;
} // namespace tps::obs

namespace tps::sim {

/** MMU configuration: all three hardware sub-blocks. */
struct MmuConfig
{
    tlb::TlbHierarchyConfig tlb;
    vm::MmuCacheConfig mmuCache;
    vm::WalkerConfig walker;
    /** Added cycles for an L1-TLB miss that hits in the L2 TLB. */
    unsigned stlbHitPenalty = 9;
    /**
     * Track per-granule Accessed/Dirty state of tailored pages in the
     * alias-PTE bit vectors (paper Sec. III-C1) so write-back and swap
     * can operate below the page granularity.
     */
    bool adBitVector = false;
    unsigned adVectorBits = 16;  //!< bound on tracked bits per page
};

/** MMU counters (the figures' raw inputs). */
struct MmuStats
{
    uint64_t accesses = 0;        //!< translations, all threads
    uint64_t l1Hits = 0;          //!< L1 TLB hits
    uint64_t l1Misses = 0;        //!< paper: "L1 DTLB misses"
    uint64_t l2Hits = 0;          //!< L2 TLB hits
    uint64_t walks = 0;           //!< full misses -> hardware walks
    uint64_t walkMemRefs = 0;     //!< paper: "page walk memory refs"
    uint64_t faultWalkMemRefs = 0; //!< refs spent discovering faults
    uint64_t faults = 0;          //!< demand faults
    uint64_t writeProtFaults = 0; //!< writes to read-only pages (CoW)
    uint64_t adPteWrites = 0;     //!< A/D update stores
    uint64_t adVectorStores = 0;  //!< fine-grained bit-vector stores
    uint64_t walkCycles = 0;      //!< latency of walk refs (PWC)
    uint64_t stlbPenaltyCycles = 0; //!< latency of L1-miss/L2-hit events
    uint64_t nestedWalkRefs = 0;  //!< 2-D walk extra refs (virtualized)
};

/** Result of translating one access. */
struct MmuAccessResult
{
    vm::Paddr pa = 0;
    tlb::TlbHitLevel level = tlb::TlbHitLevel::Miss;
    bool faulted = false;         //!< a demand fault was serviced
    unsigned translationCycles = 0; //!< latency added before the access
};

/** The MMU. */
class Mmu
{
  public:
    /**
     * @param as      Address space translated (page table + policy).
     * @param memsys  Shared cache model for walk references (optional).
     * @param cfg     Hardware configuration.
     */
    Mmu(os::AddressSpace &as, MemSys *memsys, MmuConfig cfg = MmuConfig{});

    /** Deregisters the shootdown listeners. */
    ~Mmu();

    /** Translate one access, servicing demand faults as needed. */
    MmuAccessResult access(vm::Vaddr va, bool write);

  private:
    /** access() body; @p retried guards the one CoW retry. */
    MmuAccessResult accessInternal(vm::Vaddr va, bool write,
                                   bool retried);

    /**
     * Everything after the TLB probe: L1-hit bookkeeping, L2-hit
     * refills, the walk/fault path.  Shared verbatim between the
     * engine's oracle kernel (accessInternal) and its batched kernel
     * (accessFast), which differ only in how the probe is dispatched.
     */
    MmuAccessResult finishAccess(const tlb::TlbLookupResult &hit,
                                 vm::Vaddr va, bool write,
                                 bool retried);

    /** CoW fault-and-retry (cold); @p retried guards the one retry. */
    MmuAccessResult writeFaultRetry(vm::Vaddr va, bool retried);

  public:
    /**
     * Devirtualized translate: same observable behaviour as access(), with
     * the L1 probe chain devirtualized at compile time (template
     * parameters as in TlbHierarchy::lookupFast) and the common case
     * -- an L1 hit needing no A/D maintenance and no CoW fault --
     * handled entirely inline.  Everything else falls through to the
     * shared finishAccess() tail.
     */
    template <bool HasColt, bool HasSmall, int TpsKind, bool HasLarge>
    MmuAccessResult
    accessFast(vm::Vaddr va, bool write)
    {
        ++stats_.accesses;
        tlb::TlbLookupResult hit =
            tlb_.lookupFast<HasColt, HasSmall, TpsKind, HasLarge>(va);
        if (hit.level == tlb::TlbHitLevel::L1) [[likely]] {
            tlb::TlbEntry *e = hit.entry;
            if (write && e && !e->writable) [[unlikely]]
                return finishAccess(hit, va, write, false);
            ++stats_.l1Hits;
            if (e) {
                // updateAd() is a no-op unless the A bit is unset, a
                // write finds the D bit unset, or the entry is a
                // tailored page under fine-grained A/D tracking; only
                // then take the cold call.
                bool vector = cfg_.adBitVector &&
                              e->pageBits > vm::kBasePageBits &&
                              !vm::isConventional(e->pageBits);
                if (vector || !e->accessed || (write && !e->dirty))
                    updateAd(e, va, write);
            }
            MmuAccessResult res;
            res.pa = hit.paddr;
            res.level = hit.level;
            res.translationCycles = 0;
            return res;
        }
        return finishAccess(hit, va, write, false);
    }

    const MmuStats &stats() const { return stats_; }

    /** Reset MmuStats and the walker's counters. */
    void clearStats();

    /**
     * Attach an event trace (nullptr = off) to this MMU and the TLB
     * hierarchy + walker it owns.  Exactly one TlbMiss event is
     * recorded per MmuStats::l1Misses increment, so the trace's miss
     * count reconciles with the stat counter event-for-event.
     */
    void
    setEventTrace(obs::EventTrace *trace)
    {
        trace_ = trace;
        tlb_.setEventTrace(trace);
        walker_.setEventTrace(trace);
    }

    /** Attach self-profiling for the walk/fault phases (nullptr = off). */
    void setProfile(obs::ProfileRegistry *profile) { profile_ = profile; }

    tlb::TlbHierarchy &tlbs() { return tlb_; }
    const tlb::TlbHierarchy &tlbs() const { return tlb_; }
    vm::PageWalker &walker() { return walker_; }
    vm::MmuCache &mmuCache() { return mmuCache_; }

    /**
     * Bytes that fine-grained A/D tracking would write back (dirty
     * granules of tailored pages); requires cfg.adBitVector.
     */
    uint64_t fineDirtyBytes() const;

    /**
     * Bytes coarse per-page dirty bits would write back for the same
     * tailored pages (whole pages) -- the paper's savings comparison.
     */
    uint64_t coarseDirtyBytes() const;

  private:
    /** Charge walk references to the cache model; returns cycles. */
    unsigned chargeWalk(const vm::WalkResult &walk);

    /** Maintain A/D bits for a hit entry. */
    void updateAd(tlb::TlbEntry *entry, vm::Vaddr va, bool write);

    /** Fine-grained A/D vector update for a tailored-page access. */
    void updateAdVector(vm::Vaddr page_base, unsigned page_bits,
                        vm::Vaddr va, bool write,
                        vm::Paddr alias_paddr);

    /**
     * Drop A/D vectors whose pages lie in [start, end) -- fired by
     * munmap.  mmap never reuses virtual addresses, so the payloads
     * can never be consulted again; releasing them keeps host memory
     * proportional to *live* tailored pages.
     */
    void releaseAdRange(vm::Vaddr start, vm::Vaddr end);

    /**
     * CoLT: build the maximal coalesced run around @p va and fill the
     * coalesced TLB.  The candidate PTEs share the just-fetched PTE's
     * cache line, so the probes cost no extra memory reference; the
     * same trick applies on STLB-hit refills.
     *
     * @param fill_stlb  Also install the base-page entry in the STLB
     *                   (done on walk fills, not on L2-hit refills).
     */
    void fillColt(vm::Vaddr va, const vm::LeafInfo &leaf,
                  vm::Paddr true_pte_paddr, bool fill_stlb);

    /** VMA id for miss attribution (0 when @p va is unmapped). */
    uint64_t traceVmaId(vm::Vaddr va) const;

    os::AddressSpace &as_;
    MemSys *memsys_;
    obs::EventTrace *trace_ = nullptr;
    obs::ProfileRegistry *profile_ = nullptr;
    MmuConfig cfg_;
    tlb::TlbHierarchy tlb_;
    vm::MmuCache mmuCache_;
    vm::PageWalker walker_;
    MmuStats stats_;
    //! page base -> (page size, bit vector); tailored pages only.
    std::map<vm::Vaddr, std::pair<unsigned, vm::AdBitVector>>
        adVectors_;
};

} // namespace tps::sim

#endif // TPS_SIM_MMU_HH
