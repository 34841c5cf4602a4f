/**
 * @file
 * Physical-memory telemetry tests: fragmentation-index math against
 * hand-computed buddy states, lifecycle/compaction hook accounting,
 * and the golden properties -- telemetry byte-identical between the
 * fast and reference translate paths (including a mid-chunk epoch
 * boundary), byte-stable manifests across --jobs, and telemetry-off
 * stat trees bit-identical to pre-probe behavior.
 */

#include <gtest/gtest.h>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/mem_telemetry.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_bindings.hh"
#include "os/compaction.hh"
#include "os/phys_memory.hh"
#include "os/policy_common.hh"

namespace tps::obs {
namespace {

// ------------------------------------------------- fragmentation math

TEST(ExtFrag, ZeroWhileARequestWouldSucceed)
{
    // One free block at the requested order (or above): index 0, the
    // request succeeds regardless of how shattered the rest is.
    std::vector<uint64_t> free = {100, 0, 0, 1};
    EXPECT_DOUBLE_EQ(extFragIndex(free, 3), 0.0);
    EXPECT_DOUBLE_EQ(extFragIndex(free, 2), 0.0);  // order 3 covers 2
    EXPECT_DOUBLE_EQ(extFragIndex(free, 0), 0.0);
}

TEST(ExtFrag, ZeroWhenNothingIsFree)
{
    // No free memory at all: the failure is shortage, not
    // fragmentation (Linux's __fragmentation_index convention).
    std::vector<uint64_t> empty = {0, 0, 0, 0};
    EXPECT_DOUBLE_EQ(extFragIndex(empty, 2), 0.0);
    EXPECT_DOUBLE_EQ(extFragIndex({}, 5), 0.0);
}

TEST(ExtFrag, HandComputedShatteredStates)
{
    // 4 free base frames, nothing larger; request order 2 (4 frames):
    //   1 - (1 + 4/4) / 4 = 0.5
    EXPECT_DOUBLE_EQ(extFragIndex({4}, 2), 0.5);
    // 16 base frames; request order 4 (16 frames):
    //   1 - (1 + 16/16) / 16 = 0.875
    EXPECT_DOUBLE_EQ(extFragIndex({16}, 4), 0.875);
    // 2 order-1 blocks (4 frames in 2 blocks); request order 2:
    //   1 - (1 + 4/4) / 2 = 0
    EXPECT_DOUBLE_EQ(extFragIndex({0, 2}, 2), 0.0);
    // Mixed: 8 base + 2 order-1 = 12 frames in 10 blocks; order 3:
    //   1 - (1 + 12/8) / 10 = 0.75
    EXPECT_DOUBLE_EQ(extFragIndex({8, 2}, 3), 0.75);
}

TEST(ExtFrag, TendsToOneWithManySmallBlocks)
{
    // Plenty of memory, all of it in base frames: asking for a huge
    // block shows near-total fragmentation.
    std::vector<uint64_t> shattered = {1u << 16};
    double idx = extFragIndex(shattered, 10);
    EXPECT_GT(idx, 0.99);
    EXPECT_LE(idx, 1.0);
}

TEST(Contiguity, Extremes)
{
    EXPECT_DOUBLE_EQ(contiguityScore({}), 0.0);
    EXPECT_DOUBLE_EQ(contiguityScore({0, 0, 0}), 0.0);
    // All free memory in base frames: score 0.
    EXPECT_DOUBLE_EQ(contiguityScore({64}), 0.0);
    // All free memory in kMaxOrder blocks: score 1.
    std::vector<uint64_t> big(os::BuddyAllocator::kMaxOrder + 1, 0);
    big[os::BuddyAllocator::kMaxOrder] = 3;
    EXPECT_DOUBLE_EQ(contiguityScore(big), 1.0);
}

TEST(Contiguity, FrameWeightedMeanOrder)
{
    // 8 frames at order 0 and 8 frames at order 3 (one block):
    // mean order = (8*0 + 8*3) / 16 = 1.5, normalised by kMaxOrder.
    std::vector<uint64_t> free = {8, 0, 0, 1};
    EXPECT_DOUBLE_EQ(contiguityScore(free),
                     1.5 / os::BuddyAllocator::kMaxOrder);
}

TEST(ExtFrag, MatchesRealBuddyState)
{
    // A fresh buddy carries maximal blocks: every class is allocatable,
    // so every index is 0 and contiguity is 1.
    os::BuddyAllocator buddy(1u << os::BuddyAllocator::kMaxOrder);
    auto counts = buddy.freeListCounts();
    for (unsigned o = 0; o <= os::BuddyAllocator::kMaxOrder; ++o)
        EXPECT_DOUBLE_EQ(extFragIndex(counts, o), 0.0) << "order " << o;
    EXPECT_DOUBLE_EQ(contiguityScore(counts), 1.0);

    // Allocating a single base frame splits one max block all the way
    // down: orders above the remaining fragments stay allocatable.
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn.has_value());
    counts = buddy.freeListCounts();
    for (unsigned o = 0; o < os::BuddyAllocator::kMaxOrder; ++o)
        EXPECT_DOUBLE_EQ(extFragIndex(counts, o), 0.0) << "order " << o;
    // The sole max-order block is gone: one frame short, and the index
    // says so -- 1 - (1 + (2^18-1)/2^18)/18, about 0.889.
    double top = extFragIndex(counts, os::BuddyAllocator::kMaxOrder);
    EXPECT_NEAR(top, 1.0 - 2.0 / 18.0, 1e-3);
}

TEST(AgeBucket, IsBitWidth)
{
    EXPECT_EQ(ageBucket(0), 0u);
    EXPECT_EQ(ageBucket(1), 1u);
    EXPECT_EQ(ageBucket(2), 2u);
    EXPECT_EQ(ageBucket(3), 2u);
    EXPECT_EQ(ageBucket(4), 3u);
    EXPECT_EQ(ageBucket(7), 3u);
    EXPECT_EQ(ageBucket(8), 4u);
    EXPECT_EQ(ageBucket(1023), 10u);
}

// ---------------------------------------------------- lifecycle hooks

TEST(MemTelemetry, LifecycleHooksAccount)
{
    MemTelemetry tel;
    EXPECT_TRUE(tel.data().enabled);
    tel.onReservationCreated(0x1000, 10);
    tel.onReservationCreated(0x2000, 20);
    tel.onPromotion(0x1000, 12, 16, 42);  // age 32 -> bucket 6
    tel.onReservationReleased(0x1000, 74);  // age 64 -> bucket 7
    tel.onReservationReleased(0x2000, 21);  // age 1 -> bucket 1

    const MemLifecycle &life = tel.data().lifecycle;
    EXPECT_EQ(life.created, 2u);
    EXPECT_EQ(life.promoted, 1u);
    EXPECT_EQ(life.broken, 2u);
    EXPECT_EQ(life.ageAtPromotion.at(ageBucket(32)), 1u);
    EXPECT_EQ(life.ageAtBreak.at(ageBucket(64)), 1u);
    EXPECT_EQ(life.ageAtBreak.at(ageBucket(1)), 1u);
    // 12/16 filled = 75%.
    EXPECT_EQ(life.fillAtPromotion.at(75), 1u);
}

TEST(MemTelemetry, UnknownReservationAgesAsZero)
{
    // A promotion for a base the probe never saw created (attached
    // mid-run) books age 0 rather than inventing one.
    MemTelemetry tel;
    tel.onPromotion(0x5000, 4, 4, 99);
    EXPECT_EQ(tel.data().lifecycle.ageAtPromotion.at(ageBucket(0)), 1u);
    EXPECT_EQ(tel.data().lifecycle.fillAtPromotion.at(100), 1u);
}

TEST(MemTelemetry, CompactionYieldFromMergePass)
{
    using namespace tps::os;
    // The compaction_test merge recipe: two non-adjacent 64 KB
    // reservations backing one 128 KB region, with one order-5 block
    // freed so the merged block fits.
    PhysMemory pm(512ull << 20);
    // The probe must outlive the address space: teardown unmaps fire
    // the release hooks.
    MemTelemetry tel;
    AddressSpace as(pm, std::make_unique<TpsPolicy>());
    as.setMemTelemetry(&tel);

    BuddyAllocator &buddy = pm.buddy();
    std::vector<Pfn> held;
    while (auto pfn = buddy.alloc(5))
        held.push_back(*pfn);
    ASSERT_GT(held.size(), 40u);
    buddy.free(held[10], 4);
    buddy.free(held[20] + 16, 4);

    vm::Vaddr va = as.mmap(128 << 10);
    for (uint64_t off = 0; off < (128 << 10); off += 0x1000)
        ASSERT_TRUE(as.handleFault(va + off, true));
    ASSERT_EQ(as.reservations().size(), 2u);
    buddy.free(held[30], 5);

    ASSERT_EQ(mergeReservationPass(as, 10), 1u);

    const MemCompactionYield &yield = tel.data().compaction;
    EXPECT_EQ(yield.passes, 1u);
    EXPECT_EQ(yield.mergedPages, 1u);
    // One merge migrates both 16-frame halves.
    EXPECT_EQ(yield.movedFrames, 32u);
    // The merge freed two scattered 64 KB blocks and consumed one
    // contiguous 128 KB one; contiguity must not have collapsed.
    EXPECT_GT(yield.contiguityRecovered, -1.0);
    // Both reservation creations were observed; the merge releases one.
    EXPECT_EQ(tel.data().lifecycle.created, 2u);

    // And the pass's stats landed in the address space's counters.
    EXPECT_EQ(as.compactionStats().mergedPages, 1u);
    EXPECT_EQ(as.compactionStats().migratedFrames, 32u);
}

TEST(MemTelemetry, ClearKeepsProbeEnabled)
{
    MemTelemetry tel;
    tel.onReservationCreated(0x1000, 1);
    tel.clear();
    EXPECT_TRUE(tel.data().enabled);
    EXPECT_EQ(tel.data().lifecycle.created, 0u);
    EXPECT_TRUE(tel.data().samples.empty());
}

// ------------------------------------------------ end-to-end goldens

core::RunOptions
telemetryRun(uint64_t chunk = 0, bool reference = false)
{
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = core::Design::Tps;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    opts.epochAccesses = 10000;
    opts.memTelemetry = true;
    opts.chunkAccesses = chunk;
    opts.referencePath = reference;
    return opts;
}

TEST(MemTelemetry, RecordedIntoSimStats)
{
    sim::SimStats stats = core::runExperiment(telemetryRun());
    ASSERT_TRUE(stats.mem.enabled);
    // Warmup seam + epoch boundaries + end of run.
    ASSERT_GE(stats.mem.samples.size(), 2u);
    EXPECT_EQ(stats.mem.samples.front().accesses, 0u);
    EXPECT_EQ(stats.mem.samples.back().accesses, stats.accesses);
    // Samples ride increasing access ordinals.
    for (size_t i = 1; i < stats.mem.samples.size(); ++i) {
        EXPECT_LT(stats.mem.samples[i - 1].accesses,
                  stats.mem.samples[i].accesses);
    }
    const MemEpochSample &last = stats.mem.samples.back();
    EXPECT_GT(last.totalFrames, 0u);
    EXPECT_EQ(last.extFrag.size(), os::BuddyAllocator::kMaxOrder + 1);
    EXPECT_FALSE(last.census.empty());
    // TPS on gups makes reservations and promotes some of them.
    EXPECT_GT(stats.mem.lifecycle.created, 0u);
    EXPECT_GT(stats.mem.lifecycle.promoted, 0u);
}

TEST(MemTelemetry, OffLeavesStatsTreeUntouched)
{
    core::RunOptions opts = telemetryRun();
    opts.memTelemetry = false;
    sim::SimStats stats = core::runExperiment(opts);
    EXPECT_FALSE(stats.mem.enabled);
    EXPECT_TRUE(stats.mem.samples.empty());
    // The "mem" section must not exist in the serialized tree.
    EXPECT_EQ(stats.toJson().find("mem"), nullptr);
    // ...and neither must the runOptions key, so telemetry-off
    // manifests are byte-identical to pre-probe ones.
    EXPECT_EQ(obs::runOptionsJson(opts).find("memTelemetry"), nullptr);
    EXPECT_NE(obs::runOptionsJson(telemetryRun()).find("memTelemetry"),
              nullptr);
}

TEST(MemTelemetry, FastAndReferencePathsByteIdentical)
{
    // chunkAccesses=7 forces epoch boundaries to land mid-chunk; the
    // telemetry series must still match the per-access oracle byte for
    // byte.
    sim::SimStats fast = core::runExperiment(telemetryRun(7, false));
    sim::SimStats ref = core::runExperiment(telemetryRun(0, true));
    ASSERT_TRUE(fast.mem.enabled);
    ASSERT_TRUE(ref.mem.enabled);
    EXPECT_EQ(fast.mem.toJson().dump(2), ref.mem.toJson().dump(2));
    EXPECT_EQ(fast.toJson().dump(2), ref.toJson().dump(2));
}

TEST(MemTelemetry, RoundTripsThroughManifestJson)
{
    sim::SimStats stats = core::runExperiment(telemetryRun());
    Json j = stats.toJson();
    sim::SimStats back = obs::simStatsFromJson(j);
    EXPECT_TRUE(back.mem.enabled);
    EXPECT_EQ(back.toJson().dump(2), j.dump(2));
    // Buddy/compaction counters survive the round trip too.
    EXPECT_EQ(back.buddy.allocs, stats.buddy.allocs);
    EXPECT_EQ(back.buddy.splits, stats.buddy.splits);
    EXPECT_EQ(back.compaction.mergedPages, stats.compaction.mergedPages);
}

/** Host-free manifest bytes for a telemetry grid on @p jobs workers. */
std::string
telemetryManifestBytes(unsigned jobs)
{
    std::vector<core::RunOptions> cells;
    for (core::Design d :
         {core::Design::Thp, core::Design::Tps, core::Design::TpsEager}) {
        core::RunOptions opts = telemetryRun();
        opts.design = d;
        cells.push_back(opts);
    }
    core::ExperimentRunner runner(jobs);
    std::vector<sim::SimStats> stats = runner.run(cells);
    std::vector<obs::CellArtifact> artifacts;
    for (size_t i = 0; i < cells.size(); ++i) {
        obs::CellArtifact cell;
        cell.options = cells[i];
        cell.stats = stats[i];
        cell.wallSeconds = double(jobs);  // must not reach the bytes
        artifacts.push_back(std::move(cell));
    }
    obs::ManifestInfo info;
    info.bench = "telemetry-golden";
    info.jobs = jobs;
    info.includeHost = false;
    return obs::manifestJson(info, artifacts).dump(2);
}

TEST(MemTelemetry, ManifestByteStableAcrossJobs)
{
    std::string serial = telemetryManifestBytes(1);
    EXPECT_EQ(serial, telemetryManifestBytes(4));
}

} // namespace
} // namespace tps::obs
