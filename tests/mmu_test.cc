/**
 * @file
 * MMU front-end tests: translation flow through TLB levels, demand
 * faults, A/D maintenance, walk-reference accounting, CoLT coalescing
 * fills, RMM range-TLB refills, and shootdown wiring.
 */

#include <gtest/gtest.h>

#include "os/policy_common.hh"
#include "os/policy_rmm.hh"
#include "sim/mmu.hh"
#include "util/sim_error.hh"

namespace tps::sim {
namespace {

struct Rig
{
    explicit Rig(std::unique_ptr<os::PagingPolicy> policy,
                 MmuConfig cfg = MmuConfig{})
        : pm(512ull << 20),
          as(pm, std::move(policy)),
          mmu(as, nullptr, cfg)
    {}

    os::PhysMemory pm;
    os::AddressSpace as;
    Mmu mmu;
};

TEST(Mmu, FirstAccessFaultsWalksAndFills)
{
    Rig rig(std::make_unique<os::Base4kPolicy>());
    vm::Vaddr va = rig.as.mmap(1 << 20);
    MmuAccessResult res = rig.mmu.access(va + 0x123, false);
    EXPECT_TRUE(res.faulted);
    EXPECT_EQ(res.level, tlb::TlbHitLevel::Miss);
    EXPECT_EQ(rig.mmu.stats().faults, 1u);
    EXPECT_GT(rig.mmu.stats().walkMemRefs, 0u);
    EXPECT_GT(rig.mmu.stats().faultWalkMemRefs, 0u);

    // Second access: L1 hit, no new walk.
    uint64_t walks = rig.mmu.stats().walks;
    MmuAccessResult hit = rig.mmu.access(va + 0x456, false);
    EXPECT_FALSE(hit.faulted);
    EXPECT_EQ(hit.level, tlb::TlbHitLevel::L1);
    EXPECT_EQ(hit.translationCycles, 0u);
    EXPECT_EQ(rig.mmu.stats().walks, walks);
    EXPECT_EQ(hit.pa, res.pa - 0x123 + 0x456);
}

TEST(Mmu, TranslationConsistentAcrossLevels)
{
    Rig rig(std::make_unique<os::Base4kPolicy>());
    vm::Vaddr va = rig.as.mmap(1 << 20);
    vm::Paddr first = rig.mmu.access(va, true).pa;
    // Same PA from L1 hit and after a flush (re-walk).
    EXPECT_EQ(rig.mmu.access(va, false).pa, first);
    rig.mmu.tlbs().flushAll();
    EXPECT_EQ(rig.mmu.access(va, false).pa, first);
}

TEST(Mmu, L2HitHasStlbPenalty)
{
    MmuConfig cfg;
    cfg.tlb.l1SmallEntries = 4;
    cfg.tlb.l1SmallWays = 4;
    Rig rig(std::make_unique<os::Base4kPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(1 << 20);
    for (int i = 0; i < 5; ++i)
        rig.mmu.access(va + i * 0x1000ull, false);
    // The first page fell out of the tiny L1 but sits in the STLB.
    MmuAccessResult res = rig.mmu.access(va, false);
    EXPECT_EQ(res.level, tlb::TlbHitLevel::L2);
    EXPECT_EQ(res.translationCycles, cfg.stlbHitPenalty);
    EXPECT_GT(rig.mmu.stats().stlbPenaltyCycles, 0u);
}

TEST(Mmu, AdBitsWrittenOncePerPage)
{
    Rig rig(std::make_unique<os::Base4kPolicy>());
    vm::Vaddr va = rig.as.mmap(1 << 20);
    rig.mmu.access(va, false);              // fill; sets A
    uint64_t ad = rig.mmu.stats().adPteWrites;
    EXPECT_GE(ad, 1u);
    rig.mmu.access(va + 8, false);          // A cached: no new write
    EXPECT_EQ(rig.mmu.stats().adPteWrites, ad);
    rig.mmu.access(va + 16, true);          // first write: set D
    EXPECT_EQ(rig.mmu.stats().adPteWrites, ad + 1);
    rig.mmu.access(va + 24, true);          // D cached
    EXPECT_EQ(rig.mmu.stats().adPteWrites, ad + 1);
    // The PTE itself now carries A and D.
    auto leaf = rig.as.pageTable().lookup(va);
    EXPECT_TRUE(leaf->leaf.accessed);
    EXPECT_TRUE(leaf->leaf.dirty);
}

TEST(Mmu, TpsPromotedPageHitsInTpsTlb)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(64 << 10);
    // Touch all 16 pages; region promotes to one 64 KB page.
    for (int i = 0; i < 16; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    // One more access anywhere in the region: the promoted entry must
    // hit in the TPS TLB even for pages the TLB never saw directly.
    rig.mmu.tlbs().flushAll();
    rig.mmu.access(va + 15 * 0x1000ull, false);   // walk, fill 64 KB
    MmuAccessResult res = rig.mmu.access(va + 3 * 0x1000ull, false);
    EXPECT_EQ(res.level, tlb::TlbHitLevel::L1);
    EXPECT_GE(rig.mmu.tlbs().tpsTlb()->occupancy(), 1u);
}

TEST(Mmu, TailoredAliasWalkCountsExtraRef)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(64 << 10);
    for (int i = 0; i < 16; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    rig.mmu.tlbs().flushAll();
    rig.mmu.clearStats();
    // Walk landing on an alias PTE: 4 + 1 references.
    rig.mmu.access(va + 9 * 0x1000ull, false);
    EXPECT_EQ(rig.mmu.walker().stats().aliasExtra, 1u);
}

TEST(Mmu, ColtCoalescesContiguousPages)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Colt;
    Rig rig(std::make_unique<os::ColtPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(1 << 20);
    // Touch a full aligned 8-page cluster.
    for (int i = 0; i < 8; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    // After the faults, the last walk coalesced the whole cluster;
    // flush-free accesses to other pages of the cluster hit.
    uint64_t walks = rig.mmu.stats().walks;
    for (int i = 0; i < 8; ++i) {
        MmuAccessResult res = rig.mmu.access(va + i * 0x1000ull, false);
        EXPECT_EQ(res.level, tlb::TlbHitLevel::L1) << i;
    }
    EXPECT_EQ(rig.mmu.stats().walks, walks);
    EXPECT_GT(rig.mmu.tlbs().coltTlb()->coalescingFactor(), 1.0);
}

TEST(Mmu, RmmRangeTlbRefilledAfterWalk)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Rmm;
    Rig rig(std::make_unique<os::RmmPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(4ull << 20);
    // First access: full miss -> walk -> range TLB refill.
    rig.mmu.access(va, false);
    // Accesses to other pages: L1 misses resolved by the range TLB
    // (no more walks).
    uint64_t walks = rig.mmu.stats().walks;
    for (int i = 1; i < 64; ++i) {
        MmuAccessResult res =
            rig.mmu.access(va + i * 0x10000ull, false);
        EXPECT_NE(res.level, tlb::TlbHitLevel::Miss) << i;
    }
    EXPECT_EQ(rig.mmu.stats().walks, walks);
    // An untouched page of the range is an L2 hit in the range TLB.
    tlb::TlbLookupResult r = rig.mmu.tlbs().lookup(va + 0x3ff000);
    EXPECT_EQ(r.level, tlb::TlbHitLevel::L2);
    EXPECT_TRUE(r.fromRange);
}

TEST(Mmu, ShootdownOnMunmapDropsTranslations)
{
    Rig rig(std::make_unique<os::Base4kPolicy>());
    vm::Vaddr va = rig.as.mmap(64 << 10);
    rig.mmu.access(va, true);
    rig.as.munmap(va);
    // The VA is gone; a new access must fault (and fail: no VMA).
    EXPECT_THROW(rig.mmu.access(va, false), SimError);
}

TEST(Mmu, WalkRefsMatchPageSizeDepth)
{
    // THP: after 2 MB promotion, a fresh walk costs 3 refs, not 4.
    Rig rig(std::make_unique<os::ThpPolicy>());
    vm::Vaddr va = rig.as.mmap(2ull << 20);
    for (uint64_t off = 0; off < (2ull << 20); off += 0x1000)
        rig.mmu.access(va + off, true);
    rig.mmu.tlbs().flushAll();
    rig.mmu.mmuCache().invalidateAll();
    rig.mmu.clearStats();
    rig.mmu.access(va + 0x123456, false);
    EXPECT_EQ(rig.mmu.stats().walkMemRefs, 3u);
}

TEST(Mmu, MemsysChargingProducesWalkCycles)
{
    os::PhysMemory pm(512ull << 20);
    os::AddressSpace as(pm, std::make_unique<os::Base4kPolicy>());
    MemSys memsys;
    Mmu mmu(as, &memsys, MmuConfig{});
    vm::Vaddr va = as.mmap(1 << 20);
    mmu.access(va, false);
    EXPECT_GT(mmu.stats().walkCycles, 0u);
    EXPECT_GT(memsys.stats().accesses, 0u);
}

} // namespace
} // namespace tps::sim

namespace tps::sim {
namespace {

TEST(MmuAdVector, FineGrainedDirtyTracking)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    cfg.adBitVector = true;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(64 << 10);
    // Promote to one 64 KB tailored page (reads only, so nothing is
    // dirty yet).
    for (int i = 0; i < 16; ++i)
        rig.mmu.access(va + i * 0x1000ull, false);
    // Fresh MMU state for the page of interest: flush and touch again.
    rig.mmu.tlbs().flushAll();

    // Read the page, then dirty exactly two granules.
    rig.mmu.access(va + 0x0000, false);
    rig.mmu.access(va + 0x3000, true);
    rig.mmu.access(va + 0x3008, true);   // same granule: suppressed
    rig.mmu.access(va + 0xA000, true);

    // 64 KB page, 16 bits -> 4 KB granules: 2 dirty granules = 8 KB.
    EXPECT_EQ(rig.mmu.fineDirtyBytes(), 8u << 10);
    // Coarse tracking would write back the whole 64 KB page.
    EXPECT_EQ(rig.mmu.coarseDirtyBytes(), 64u << 10);
    EXPECT_GT(rig.mmu.stats().adVectorStores, 0u);
}

TEST(MmuAdVector, StickySuppression)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    cfg.adBitVector = true;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(16 << 10);
    for (int i = 0; i < 4; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    // Page size is now final (16 KB); dirty every granule once...
    for (int i = 0; i < 4; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    uint64_t stores = rig.mmu.stats().adVectorStores;
    // ...then re-writing already-dirty granules adds no stores.
    for (int i = 0; i < 4; ++i)
        rig.mmu.access(va + i * 0x1000ull + 8, true);
    EXPECT_EQ(rig.mmu.stats().adVectorStores, stores);
}

TEST(MmuAdVector, DisabledByDefault)
{
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(16 << 10);
    for (int i = 0; i < 4; ++i)
        rig.mmu.access(va + i * 0x1000ull, true);
    EXPECT_EQ(rig.mmu.stats().adVectorStores, 0u);
    EXPECT_EQ(rig.mmu.fineDirtyBytes(), 0u);
}

TEST(MmuAdVector, GranuleBoundOnHugePages)
{
    // A 16 MB tailored page tracks at most 16 granules of 1 MB each.
    MmuConfig cfg;
    cfg.tlb.design = tlb::TlbDesign::Tps;
    cfg.adBitVector = true;
    Rig rig(std::make_unique<os::TpsPolicy>(), cfg);
    vm::Vaddr va = rig.as.mmap(16ull << 20);
    for (uint64_t off = 0; off < (16ull << 20); off += 0x1000)
        rig.as.handleFault(va + off, true);
    rig.mmu.tlbs().flushAll();
    rig.mmu.access(va + 5, true);   // one granule dirty
    EXPECT_EQ(rig.mmu.fineDirtyBytes(), 1ull << 20);
}

} // namespace
} // namespace tps::sim
