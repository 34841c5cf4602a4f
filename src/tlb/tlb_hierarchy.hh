/**
 * @file
 * Two-level TLB hierarchy composing the structures of Table I and the
 * paper's four designs:
 *
 *  - Baseline (Skylake-like): split L1 (64-entry 4-way 4 KB SA, 32-entry
 *    FA 2 MB, 4-entry FA 1 GB) + 1536-entry 12-way 4K/2M STLB + 16-entry
 *    FA 1 GB STLB.
 *  - TPS: the 2 MB and 1 GB L1s are *replaced* by one 32-entry fully
 *    associative any-page-size TPS TLB (Sec. III-A2); the 4 KB L1 stays.
 *  - RMM: baseline L1/L2 plus a 32-entry range TLB probed in parallel
 *    with the STLB on L1 misses.
 *  - CoLT: the 4 KB L1 becomes a coalesced TLB (up to 8 contiguous
 *    translations per entry); everything else is baseline.
 *
 * The hierarchy performs lookups and fills; page walks, CoLT coalescing
 * probes and RMM range-table fills are driven by the MMU (sim/mmu.hh),
 * which owns page-table access.
 */

#ifndef TPS_TLB_TLB_HIERARCHY_HH
#define TPS_TLB_TLB_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tlb/colt_tlb.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/skewed_assoc_tlb.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/tlb_entry.hh"

namespace tps::obs {
class EventTrace;
} // namespace tps::obs

namespace tps::tlb {

/** Which of the paper's designs the hierarchy implements. */
enum class TlbDesign
{
    Baseline,  //!< conventional split-size Skylake-like TLBs
    Tps,       //!< 4 KB SA L1 + any-size TPS L1 TLB
    Rmm,       //!< baseline + L2-level range TLB
    Colt,      //!< coalesced 4 KB L1
};

/** Geometry knobs (defaults follow Table I / Sec. III-A2). */
struct TlbHierarchyConfig
{
    TlbDesign design = TlbDesign::Baseline;
    unsigned l1SmallEntries = 64;
    unsigned l1SmallWays = 4;
    unsigned l1LargeEntries = 32;   //!< 2 MB FA L1 (baseline/RMM/CoLT)
    unsigned l1HugeEntries = 4;     //!< 1 GB FA L1 (baseline/RMM/CoLT)
    unsigned tpsTlbEntries = 32;    //!< any-size TPS L1 TLB
    bool tpsTlbSkewed = false;      //!< skewed-associative TPS TLB
                                    //!< instead of fully associative
    unsigned tpsTlbSkewWays = 4;
    unsigned stlbEntries = 1536;
    unsigned stlbWays = 12;
    unsigned stlbHugeEntries = 16;
    unsigned rangeTlbEntries = 32;
    unsigned coltWays = 4;
};

/** Where a lookup was satisfied. */
enum class TlbHitLevel
{
    L1,
    L2,
    Miss,
};

/** Result of a hierarchy lookup. */
struct TlbLookupResult
{
    TlbHitLevel level = TlbHitLevel::Miss;
    TlbEntry *entry = nullptr;  //!< L1-resident entry after a hit/fill
    bool fromRange = false;     //!< L2 hit supplied by the range TLB
    bool fromColt = false;      //!< L1 hit supplied by the coalesced TLB
    Paddr paddr = 0;            //!< translation (valid on hit)
};

/** The composed hierarchy. */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const TlbHierarchyConfig &cfg);

    /**
     * Look up @p va through L1 then L2 (and the range TLB for RMM).
     * On an L2 hit the translation is installed into the appropriate L1
     * structure and the returned entry points at that L1 copy.  On a
     * full miss the caller (MMU) must walk and call fill().
     */
    TlbLookupResult lookup(Vaddr va);

    /**
     * Compile-time-specialized lookup for the engine's batched kernel.
     *
     * The template parameters mirror which L1 structures the active
     * design instantiates, so the probe chain compiles down to direct
     * calls with the null checks and virtual dispatch of lookup()
     * removed.  The L2 tail (STLB / range TLB, rarely taken) is shared
     * with lookup(), so the two are identical by construction
     * everywhere except the devirtualized L1 probes.
     *
     * @tparam HasColt   design has the coalesced L1 (Colt)
     * @tparam HasSmall  design has the 4 KB set-associative L1
     * @tparam TpsKind   0 = no TPS L1, 1 = fully associative,
     *                   2 = skewed associative
     * @tparam HasLarge  design has the split 2 MB / 1 GB L1s
     */
    template <bool HasColt, bool HasSmall, int TpsKind, bool HasLarge>
    TlbLookupResult
    lookupFast(Vaddr va)
    {
        if constexpr (HasColt) {
            if (ColtEntry *ce = coltL1_->lookup(va))
                return coltHit(va, *ce);
        }
        if constexpr (HasSmall) {
            if (TlbEntry *e = l1Small_->lookup(va))
                return l1Hit(va, e);
        }
        if constexpr (TpsKind == 1) {
            auto *tps = static_cast<FullyAssocTlb *>(tpsL1_.get());
            if (TlbEntry *e = tps->lookup(va))
                return l1Hit(va, e);
        } else if constexpr (TpsKind == 2) {
            auto *tps = static_cast<SkewedAssocTlb *>(tpsL1_.get());
            if (TlbEntry *e = tps->lookup(va))
                return l1Hit(va, e);
        }
        if constexpr (HasLarge) {
            if (TlbEntry *e = l1Large_->lookup(va))
                return l1Hit(va, e);
            if (TlbEntry *e = l1Huge_->lookup(va))
                return l1Hit(va, e);
        }
        return lookupL2Tail(va);
    }

    /**
     * Install a walked translation into L1 and the STLB.
     * @return pointer to the L1-resident copy.
     */
    TlbEntry *fill(Vaddr va, const TlbEntry &entry);

    /** Invalidate the page containing @p va everywhere (INVLPG). */
    void shootdown(Vaddr va);

    /** Flush every structure (full TLB flush / context switch). */
    void flushAll();

    /** Record shootdown/flush events into @p trace (nullptr = off). */
    void setEventTrace(obs::EventTrace *trace) { trace_ = trace; }

    TlbDesign design() const { return cfg_.design; }
    const TlbHierarchyConfig &config() const { return cfg_; }

    /** Accessors for design-specific structures (may be null). */
    RangeTlb *rangeTlb() { return rangeTlb_.get(); }
    ColtTlb *coltTlb() { return coltL1_.get(); }
    AnySizeTlb *tpsTlb() { return tpsL1_.get(); }
    SetAssocTlb *l1Small() { return l1Small_.get(); }
    SetAssocTlb *stlb() { return stlb_.get(); }
    FullyAssocTlb *l1Large() { return l1Large_.get(); }
    FullyAssocTlb *l1Huge() { return l1Huge_.get(); }
    FullyAssocTlb *stlbHuge() { return stlbHuge_.get(); }

    const RangeTlb *rangeTlb() const { return rangeTlb_.get(); }
    const ColtTlb *coltTlb() const { return coltL1_.get(); }

    /**
     * Visit every cached page-granular translation in every structure,
     * without disturbing replacement state.  Coalesced (CoLT) runs and
     * RMM ranges have their own shapes; use forEachColtRun() and
     * forEachRange() for those.
     */
    void
    forEachEntry(const std::function<void(const TlbEntry &)> &visit) const
    {
        if (l1Small_)
            l1Small_->forEachEntry(visit);
        if (l1Large_)
            l1Large_->forEachEntry(visit);
        if (l1Huge_)
            l1Huge_->forEachEntry(visit);
        if (tpsL1_)
            tpsL1_->forEachEntry(visit);
        if (stlb_)
            stlb_->forEachEntry(visit);
        if (stlbHuge_)
            stlbHuge_->forEachEntry(visit);
    }

    /** Visit every valid CoLT run (no-op without a CoLT L1). */
    void
    forEachColtRun(
        const std::function<void(const ColtEntry &)> &visit) const
    {
        if (coltL1_)
            coltL1_->forEachRun(visit);
    }

    /** Visit every valid RMM range (no-op without a range TLB). */
    void
    forEachRange(
        const std::function<void(const RangeEntry &)> &visit) const
    {
        if (rangeTlb_)
            rangeTlb_->forEachRange(visit);
    }

  private:
    /** The result of an L1 hit on @p e. */
    static TlbLookupResult
    l1Hit(Vaddr va, TlbEntry *e)
    {
        TlbLookupResult res;
        res.level = TlbHitLevel::L1;
        res.entry = e;
        res.paddr = e->translate(va);
        return res;
    }

    /** The result of an L1 hit on the coalesced run @p ce. */
    static TlbLookupResult
    coltHit(Vaddr va, const ColtEntry &ce)
    {
        TlbLookupResult res;
        res.level = TlbHitLevel::L1;
        res.fromColt = true;
        res.paddr = ColtTlb::translate(va, ce);
        return res;
    }

    /**
     * The L2 half of a lookup after an L1 miss: STLB/range probe and
     * L1 install.  Shared by lookup() and lookupFast().
     */
    TlbLookupResult lookupL2Tail(Vaddr va);

    /** Route @p entry to the right L1 structure and return its copy. */
    TlbEntry *installL1(const TlbEntry &entry);

    TlbHierarchyConfig cfg_;
    std::unique_ptr<SetAssocTlb> l1Small_;
    std::unique_ptr<FullyAssocTlb> l1Large_;
    std::unique_ptr<FullyAssocTlb> l1Huge_;
    std::unique_ptr<AnySizeTlb> tpsL1_;
    std::unique_ptr<ColtTlb> coltL1_;
    std::unique_ptr<SetAssocTlb> stlb_;
    std::unique_ptr<FullyAssocTlb> stlbHuge_;
    std::unique_ptr<RangeTlb> rangeTlb_;
    obs::EventTrace *trace_ = nullptr;
};

} // namespace tps::tlb

#endif // TPS_TLB_TLB_HIERARCHY_HH
