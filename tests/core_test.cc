/**
 * @file
 * Core-module tests: tailored-size math, the A/D bit vector
 * (Sec. III-C1), the TpsSystem facade, and the experiment runner.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "vm/ad_bitvector.hh"
#include "core/tps_math.hh"
#include "core/tps_system.hh"
#include "util/stats.hh"

namespace tps::core {
namespace {

TEST(TpsMath, DecomposePowerOfTwo)
{
    auto blocks = decompose(0, 1ull << 20, 30);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].pageBits, 20u);
}

TEST(TpsMath, DecomposePaperExample28k)
{
    // Aligned 28 KB -> 16 KB + 8 KB + 4 KB (Sec. III-B2).
    auto blocks = decompose(1ull << 20, 28 << 10, 30);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].pageBits, 14u);
    EXPECT_EQ(blocks[1].pageBits, 13u);
    EXPECT_EQ(blocks[2].pageBits, 12u);
    // Blocks tile the region contiguously.
    EXPECT_EQ(blocks[1].start, blocks[0].start + (1 << 14));
    EXPECT_EQ(blocks[2].start, blocks[1].start + (1 << 13));
}

TEST(TpsMath, DecomposeRespectsCap)
{
    auto blocks = decompose(0, 1ull << 24, 21);
    ASSERT_EQ(blocks.size(), 8u);
    for (auto &b : blocks)
        EXPECT_EQ(b.pageBits, 21u);
}

TEST(TpsMath, DecomposeUnalignedStart)
{
    // Start aligned only to 8 KB: first block is limited to 8 KB.
    auto blocks = decompose(0x2000, 0x10000, 30);
    EXPECT_EQ(blocks[0].pageBits, 13u);
    uint64_t total = 0;
    for (auto &b : blocks)
        total += 1ull << b.pageBits;
    EXPECT_EQ(total, 0x10000u);
}

TEST(TpsMath, EntriesAtSizePaperExample)
{
    // Sec. I: a 256 MB structure needs 128 entries at 2 MB...
    EXPECT_EQ(entriesAtSize(256ull << 20, 21), 128u);
    // ...65536 at 4 KB, 1 at 1 GB (with 768 MB waste), 1 tailored.
    EXPECT_EQ(entriesAtSize(256ull << 20, 12), 65536u);
    EXPECT_EQ(entriesAtSize(256ull << 20, 30), 1u);
    EXPECT_EQ(entriesAtSize(256ull << 20, 28), 1u);
}

TEST(TpsMath, RoundUpWaste)
{
    EXPECT_EQ(roundUpWaste(1ull << 20), 0u);
    // Paper Sec. III-B2: a 2052 KB request rounds to 4 MB.
    uint64_t req = 2052ull << 10;
    EXPECT_EQ(roundUpWaste(req), (4ull << 20) - req);
}

TEST(AdBitVector, GranuleScalesWithPageSize)
{
    vm::AdBitVector small(14);   // 16 KB page: 4 base pages -> 4 bits
    EXPECT_EQ(small.bits(), 4u);
    EXPECT_EQ(small.granuleBits(), 12u);   // per-base-page tracking
    vm::AdBitVector big(26);     // 64 MB page: bounded to 16 bits
    EXPECT_LE(big.bits(), 16u);
    EXPECT_GT(big.granuleBits(), vm::kBasePageBits);
}

TEST(AdBitVector, StickyUpdates)
{
    vm::AdBitVector v(16);   // 64 KB page, 16 bits, 4 KB granules
    EXPECT_TRUE(v.markAccessed(0));
    EXPECT_FALSE(v.markAccessed(100));     // same granule: suppressed
    EXPECT_TRUE(v.markAccessed(0x1000));   // next granule
    EXPECT_TRUE(v.markDirty(0));           // D upgrade still stores
    EXPECT_FALSE(v.markDirty(50));
    EXPECT_EQ(v.accessedMask() & 0b11, 0b11u);
    EXPECT_EQ(v.dirtyMask(), 0b1u);
}

TEST(AdBitVector, DirtyBytesReflectGranules)
{
    vm::AdBitVector v(16);
    v.markDirty(0);
    v.markDirty(0x3000);
    EXPECT_EQ(v.dirtyBytes(), 2u * 4096);
}

TEST(AdBitVector, AliasCapacityAvailable)
{
    // Every tailored size must offer at least 16 bits of metadata.
    for (unsigned pb = 13; pb <= 30; ++pb)
        EXPECT_GE(vm::AdBitVector::availableAliasBits(pb), 10u) << pb;
}

TEST(Design, NamesAndFactories)
{
    for (Design d : {Design::Base4k, Design::Thp, Design::Tps,
                     Design::TpsEager, Design::Rmm, Design::Colt}) {
        EXPECT_NE(designName(d), nullptr);
        auto policy = makePolicy(d);
        ASSERT_NE(policy, nullptr);
        EXPECT_STREQ(policy->name(), designName(d));
    }
}

TEST(Design, TlbConfigsMatchDesigns)
{
    EXPECT_EQ(designTlbConfig(Design::Thp).design,
              tlb::TlbDesign::Baseline);
    EXPECT_EQ(designTlbConfig(Design::Tps).design, tlb::TlbDesign::Tps);
    EXPECT_EQ(designTlbConfig(Design::TpsEager).design,
              tlb::TlbDesign::Tps);
    EXPECT_EQ(designTlbConfig(Design::Rmm).design, tlb::TlbDesign::Rmm);
    EXPECT_EQ(designTlbConfig(Design::Colt).design,
              tlb::TlbDesign::Colt);
}

TEST(CellLabel, EveryVariantFieldChangesTheLabel)
{
    RunOptions base;
    base.workload = "gups";
    base.design = Design::Thp;
    EXPECT_EQ(cellLabel(base), "gups/thp");

    // One flip per variant field a bench varies within a sweep; each
    // must give a label distinct from the base and from every other.
    std::vector<std::pair<std::function<void(RunOptions &)>, std::string>>
        flips = {
            {[](RunOptions &o) { o.smt = true; }, "gups/thp+smt"},
            {[](RunOptions &o) { o.virtualized = true; }, "gups/thp+virt"},
            {[](RunOptions &o) { o.fiveLevel = true; }, "gups/thp+5level"},
            {[](RunOptions &o) { o.noMmuCache = true; }, "gups/thp+no-pwc"},
            {[](RunOptions &o) { o.tpsTlbSkewed = true; },
             "gups/thp+skewed"},
            {[](RunOptions &o) { o.tpsTlbEntries = 64; }, "gups/thp+tlb64"},
            {[](RunOptions &o) { o.fragmented = true; }, "gups/thp+frag"},
            {[](RunOptions &o) { o.tpsThreshold = 0.75; },
             "gups/thp+thr0.75"},
            {[](RunOptions &o) { o.aliasMode = vm::AliasMode::FullCopy; },
             "gups/thp+full-copy"},
            {[](RunOptions &o) {
                 o.encoding = vm::SizeEncoding::SizeField;
             },
             "gups/thp+size-field"},
            {[](RunOptions &o) {
                 o.timing = sim::TlbTimingMode::PerfectL2;
             },
             "gups/thp/perfect-l2"},
        };
    std::set<std::string> seen = {cellLabel(base)};
    for (const auto &[flip, want] : flips) {
        RunOptions opts = base;
        flip(opts);
        EXPECT_EQ(cellLabel(opts), want);
        EXPECT_TRUE(seen.insert(cellLabel(opts)).second) << want;
    }

    // Variants stack in a fixed order after the timing part.
    RunOptions both = base;
    both.design = Design::Tps;
    both.smt = true;
    both.tpsTlbSkewed = true;
    both.tpsTlbEntries = 64;
    both.timing = sim::TlbTimingMode::PerfectL1;
    EXPECT_EQ(cellLabel(both), "gups/tps/perfect-l1+smt+skewed+tlb64");

    // Host-only and robustness knobs never change a cell's label.
    RunOptions host = base;
    host.paranoid = true;
    host.cellTimeoutSeconds = 5;
    host.referencePath = true;
    host.denseState = true;
    EXPECT_EQ(cellLabel(host), "gups/thp");
}

TEST(TpsSystem, QuickstartFlow)
{
    TpsSystem::Config cfg;
    cfg.design = Design::Tps;
    cfg.physBytes = 256ull << 20;
    TpsSystem sys(cfg);
    vm::Vaddr va = sys.mmap(1 << 20);
    sys.touchRange(va, 1 << 20);
    // Whole region is one tailored page.
    EXPECT_EQ(sys.addressSpace().pageSizeCensus().at(20), 1u);
    // Translation is stable and offset-correct.
    vm::Paddr pa = sys.access(va + 0x1234, false);
    EXPECT_EQ(pa & 0xFFF, 0x234u);
    sys.munmap(va);
    EXPECT_EQ(sys.phys().stats().appFrames, 0u);
}

TEST(RunExperiment, SmokeEveryDesign)
{
    for (Design d : {Design::Base4k, Design::Thp, Design::Tps,
                     Design::TpsEager, Design::Rmm, Design::Colt}) {
        RunOptions opts;
        opts.workload = "gups";
        opts.design = d;
        opts.scale = 0.01;
        opts.physBytes = 256ull << 20;
        sim::SimStats stats = runExperiment(opts);
        EXPECT_GT(stats.accesses, 0u) << designName(d);
        EXPECT_GT(stats.cycles, 0u) << designName(d);
    }
}

TEST(RunExperiment, FragmentedOptionAgesMemory)
{
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Tps;
    opts.scale = 0.01;
    opts.fragmented = true;
    sim::SimStats frag = runExperiment(opts);
    opts.fragmented = false;
    sim::SimStats clean = runExperiment(opts);
    // Fragmentation forces smaller reservations: more OS fallbacks.
    EXPECT_GE(frag.osWork.reservationsMissed,
              clean.osWork.reservationsMissed);
}

TEST(RunExperiment, VirtualizedIncreasesWalkWork)
{
    // Base-4K paging keeps steady-state walks frequent so the nested
    // (2-D) dimension has something to amplify.
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Base4k;
    opts.scale = 0.05;
    sim::SimStats native = runExperiment(opts);
    opts.virtualized = true;
    sim::SimStats virt = runExperiment(opts);
    EXPECT_GT(virt.mmu.nestedWalkRefs, 0u);
    EXPECT_GT(virt.walkCycles, native.walkCycles);
}

TEST(RunExperiment, FiveLevelAddsWalkRefs)
{
    // The 5th level only costs on walks the paging-structure caches
    // cannot shorten, so compare with them disabled.
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Base4k;
    opts.scale = 0.05;
    opts.noMmuCache = true;
    sim::SimStats four = runExperiment(opts);
    opts.fiveLevel = true;
    sim::SimStats five = runExperiment(opts);
    EXPECT_GT(five.walkMemRefs, four.walkMemRefs);
    // Every full walk gained exactly one reference.
    EXPECT_NEAR(static_cast<double>(five.walkMemRefs),
                static_cast<double>(four.walkMemRefs) +
                    static_cast<double>(four.tlbMisses),
                static_cast<double>(four.tlbMisses) * 0.1);
}

TEST(RunExperiment, MmuCachesShortenWalks)
{
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Base4k;
    opts.scale = 0.05;
    sim::SimStats cached = runExperiment(opts);
    opts.noMmuCache = true;
    sim::SimStats uncached = runExperiment(opts);
    // Walk count is similar but each walk costs more references.
    EXPECT_GT(ratio(uncached.walkMemRefs, uncached.tlbMisses),
              ratio(cached.walkMemRefs, cached.tlbMisses) + 1.0);
}

TEST(RunExperiment, AliasModesBothWork)
{
    RunOptions opts;
    opts.workload = "xsbench";
    opts.design = Design::Tps;
    opts.scale = 0.02;
    opts.aliasMode = vm::AliasMode::Pointer;
    sim::SimStats pointer = runExperiment(opts);
    opts.aliasMode = vm::AliasMode::FullCopy;
    sim::SimStats copy = runExperiment(opts);
    // Same translation behaviour; only the walk-access count differs.
    EXPECT_EQ(pointer.l1TlbMisses, copy.l1TlbMisses);
    EXPECT_GE(pointer.walkMemRefs, copy.walkMemRefs);
}

TEST(RunExperiment, SizeFieldEncodingEquivalent)
{
    RunOptions opts;
    opts.workload = "xsbench";
    opts.design = Design::Tps;
    opts.scale = 0.02;
    opts.encoding = vm::SizeEncoding::Napot;
    sim::SimStats napot = runExperiment(opts);
    opts.encoding = vm::SizeEncoding::SizeField;
    sim::SimStats field = runExperiment(opts);
    EXPECT_EQ(napot.l1TlbMisses, field.l1TlbMisses);
    EXPECT_EQ(napot.walkMemRefs, field.walkMemRefs);
}

} // namespace
} // namespace tps::core
