/**
 * @file
 * Golden-statistics regression tests.
 *
 * These guarantees are pinned here:
 *
 *  1. Parallel == serial, bitwise: the same cells run through
 *     core::runExperiment one by one and through a 4-thread
 *     ExperimentRunner must produce identical statistics in every
 *     field.  Any drift means a cell's behaviour leaked across
 *     threads (shared mutable state) or its seeds stopped being a
 *     pure function of the cell identity.
 *
 *  2. Golden values: exact counters for gups under THP and TPS at a
 *     fixed small scale.  These fail on any silent perf-model or
 *     seeding change, forcing the change to be acknowledged by
 *     updating the constants here.
 *
 *  3. Golden stat trees for SMT cells, for trace replay and for
 *     graph500: the stableHash64 of SimStats::toJson().dump(),
 *     pinning every counter and epoch sample of the round-robin
 *     interleaving, of a non-batchable workload and of a BFS over an
 *     R-MAT graph.
 *
 *  4. Graph500's process-wide CSR memo hands every instance the same
 *     graph a serial setup builds, however many threads set up
 *     instances of the same or different graphs at once; one build's
 *     CSR is the same for every number of build threads; and the
 *     design cells of one row share one graph.
 *
 *  5. The end-of-run census runExperiment() fills through
 *     RunHooks::census (page-size histogram, mapped bytes, touched
 *     pages, 2 MB chunks), pinned to the values the figures' former
 *     stand-alone census run produced.
 *
 *  6. Pairing: a cell's seed ignores its design and machine-side
 *     options, so the designs of one workload replay one stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "fake_alloc.hh"
#include "graph500_stream.hh"
#include "obs/run_manifest.hh"
#include "sim/smt.hh"
#include "sim/trace.hh"
#include "temp_path.hh"
#include "util/rng.hh"
#include "workloads/graph500.hh"
#include "workloads/registry.hh"

namespace tps::core {
namespace {

/** Assert every field of two SimStats is identical (no tolerance). */
void
expectIdentical(const sim::SimStats &a, const sim::SimStats &b,
                const char *what)
{
#define TPS_EQ(field) EXPECT_EQ(a.field, b.field) << what << ": " #field
    TPS_EQ(warmup.accesses);
    TPS_EQ(warmup.cycles);
    TPS_EQ(warmup.osCycles);
    TPS_EQ(warmup.faults);
    TPS_EQ(accesses);
    TPS_EQ(instructions);
    TPS_EQ(cycles);
    TPS_EQ(l1TlbMisses);
    TPS_EQ(l2TlbHits);
    TPS_EQ(tlbMisses);
    TPS_EQ(walkMemRefs);
    TPS_EQ(walkCycles);
    TPS_EQ(stlbPenaltyCycles);
    TPS_EQ(faults);
    TPS_EQ(mmu.accesses);
    TPS_EQ(mmu.l1Hits);
    TPS_EQ(mmu.l1Misses);
    TPS_EQ(mmu.l2Hits);
    TPS_EQ(mmu.walks);
    TPS_EQ(mmu.walkMemRefs);
    TPS_EQ(mmu.faultWalkMemRefs);
    TPS_EQ(mmu.faults);
    TPS_EQ(mmu.writeProtFaults);
    TPS_EQ(mmu.adPteWrites);
    TPS_EQ(mmu.adVectorStores);
    TPS_EQ(mmu.walkCycles);
    TPS_EQ(mmu.stlbPenaltyCycles);
    TPS_EQ(mmu.nestedWalkRefs);
    TPS_EQ(walker.walks);
    TPS_EQ(walker.faults);
    TPS_EQ(walker.accesses);
    TPS_EQ(walker.aliasExtra);
    TPS_EQ(walker.nestedAccesses);
    TPS_EQ(walker.nestedTlbHits);
    TPS_EQ(walker.nestedTlbMisses);
    TPS_EQ(memsys.accesses);
    TPS_EQ(memsys.l1Hits);
    TPS_EQ(memsys.llcHits);
    TPS_EQ(memsys.dramAccesses);
    TPS_EQ(osWork.faultCycles);
    TPS_EQ(osWork.allocCycles);
    TPS_EQ(osWork.pteCycles);
    TPS_EQ(osWork.zeroCycles);
    TPS_EQ(osWork.shootdownCycles);
    TPS_EQ(osWork.faults);
    TPS_EQ(osWork.promotions);
    TPS_EQ(osWork.reservationsCreated);
    TPS_EQ(osWork.reservationsMissed);
    TPS_EQ(mmapCalls);
    TPS_EQ(munmapCalls);
#undef TPS_EQ
}

std::vector<RunOptions>
smallGrid()
{
    // Three (workload x design) cells, small enough for test time but
    // long enough to exercise faults, promotions and TLB churn.
    std::vector<RunOptions> cells;
    for (auto [wl, d] : {std::pair<const char *, Design>
                             {"gups", Design::Thp},
                         {"xsbench", Design::Tps},
                         {"mcf", Design::Colt}}) {
        RunOptions opts;
        opts.workload = wl;
        opts.design = d;
        opts.scale = 0.02;
        opts.physBytes = 512ull << 20;
        cells.push_back(opts);
    }
    return cells;
}

TEST(GoldenStats, ParallelRunBitIdenticalToSerial)
{
    std::vector<RunOptions> cells = smallGrid();

    std::vector<sim::SimStats> serial;
    for (const RunOptions &cell : cells)
        serial.push_back(runExperiment(cell));

    ExperimentRunner runner(4);
    ASSERT_EQ(runner.jobs(), 4u);
    std::vector<sim::SimStats> parallel = runner.run(cells);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < cells.size(); ++i)
        expectIdentical(serial[i], parallel[i],
                        cells[i].workload.c_str());
}

TEST(GoldenStats, RepeatedParallelRunsIdentical)
{
    // Two 4-thread sweeps of the same grid agree with each other
    // (scheduling nondeterminism must not reach the statistics).
    std::vector<RunOptions> cells = smallGrid();
    ExperimentRunner a(4), b(4);
    std::vector<sim::SimStats> first = a.run(cells);
    std::vector<sim::SimStats> second = b.run(cells);
    for (size_t i = 0; i < cells.size(); ++i)
        expectIdentical(first[i], second[i], cells[i].workload.c_str());
}

TEST(GoldenStats, SeedIsPureFunctionOfCellIdentity)
{
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Tps;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    uint64_t seed = runSeed(opts);
    EXPECT_EQ(seed, runSeed(opts));

    // Designs and machine-side knobs are paired: a figure row's cells,
    // a census or perfect-TLB re-run, and a smaller machine all replay
    // one access stream.
    RunOptions other = opts;
    for (Design d : {Design::Base4k, Design::Thp, Design::TpsEager,
                     Design::Rmm, Design::Colt}) {
        other.design = d;
        EXPECT_EQ(runSeed(other), seed) << designName(d);
    }
    other = opts;
    other.timing = sim::TlbTimingMode::PerfectL1;
    other.physBytes *= 2;
    other.tpsThreshold = 0.5;
    other.smt = true;
    other.virtualized = true;
    other.fiveLevel = true;
    other.noMmuCache = true;
    other.tpsTlbSkewed = true;
    other.tpsTlbEntries = 64;
    other.fragmented = true;
    other.aliasMode = vm::AliasMode::FullCopy;
    other.encoding = vm::SizeEncoding::SizeField;
    other.maxAccesses = 1000;
    other.epochAccesses = 500;
    EXPECT_EQ(runSeed(other), seed);

    // What the cell simulates moves it.
    other = opts;
    other.workload = "mcf";
    EXPECT_NE(runSeed(other), seed);
    other = opts;
    other.scale = 0.04;
    EXPECT_NE(runSeed(other), seed);
    other = opts;
    other.footprintBytes = 64ull << 20;
    EXPECT_NE(runSeed(other), seed);

    // An SMT cell's competitor draws its own stream, seed + 1000: the
    // cell's stat tree is that of a primary at the cell seed beside a
    // competitor at seed + 1000, and not beside a copy of itself.
    RunOptions smt = opts;
    smt.smt = true;
    auto smtTree = [&](uint64_t competitor_seed) {
        auto primary = workloads::makeWorkload(smt.workload, smt.scale, seed);
        auto competitor = workloads::makeWorkload(smt.workload, smt.scale,
                                                  competitor_seed);
        os::PhysMemory pm(smt.physBytes);
        return sim::runSmt(pm, makePolicy(smt.design), *primary,
                           *competitor, makeEngineConfig(smt))
            .toJson()
            .dump();
    };
    std::string cell = runExperiment(smt).toJson().dump();
    EXPECT_EQ(cell, smtTree(seed + 1000));
    EXPECT_NE(cell, smtTree(seed));
}

/** The first @p count accesses of @p opts' workload, set up on a
 *  FakeAlloc (so every cell sees the same region addresses). */
std::vector<sim::MemAccess>
firstAccesses(const RunOptions &opts, unsigned count)
{
    auto wl = workloads::makeWorkload(opts.workload, opts.scale,
                                      runSeed(opts), opts.footprintBytes);
    test::FakeAlloc alloc;
    wl->setup(alloc);
    std::vector<sim::MemAccess> out(count);
    for (sim::MemAccess &acc : out) {
        if (!wl->next(acc))
            ADD_FAILURE() << opts.workload << " ran dry";
    }
    return out;
}

TEST(GoldenStats, DesignsReplayOneStream)
{
    // The paper compares every design on one trace: the thp, tps, colt
    // and rmm cells of a workload emit the same accesses.
    constexpr unsigned kAccesses = 10000;
    for (const char *wl : {"gups", "mcf", "gcc", "graph500"}) {
        RunOptions opts;
        opts.workload = wl;
        opts.scale = 0.02;
        opts.design = Design::Thp;
        std::vector<sim::MemAccess> thp = firstAccesses(opts, kAccesses);
        for (Design d : {Design::Tps, Design::Colt, Design::Rmm}) {
            opts.design = d;
            std::vector<sim::MemAccess> other =
                firstAccesses(opts, kAccesses);
            for (unsigned i = 0; i < kAccesses; ++i) {
                ASSERT_EQ(other[i].va, thp[i].va)
                    << cellLabel(opts) << " @" << i;
                ASSERT_EQ(other[i].write, thp[i].write)
                    << cellLabel(opts) << " @" << i;
                ASSERT_EQ(other[i].dependsOnPrev, thp[i].dependsOnPrev)
                    << cellLabel(opts) << " @" << i;
            }
        }
    }
}

/** The grid's host-free manifest JSON when run on @p jobs workers. */
std::string
manifestBytes(unsigned jobs)
{
    std::vector<RunOptions> cells = smallGrid();
    // Epoch sampling on: the per-epoch series must be schedule-stable
    // too, not just the totals.
    for (RunOptions &cell : cells)
        cell.epochAccesses = 10000;

    ExperimentRunner runner(jobs);
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
    info.bench = "golden";
    info.jobs = jobs;
    info.includeHost = false;
    return obs::manifestJson(info, artifacts).dump(2);
}

TEST(GoldenStats, ManifestByteStableAcrossJobs)
{
    // The full --stats-json artifact (config, seeds, stat tree, epoch
    // series) is byte-identical however wide the worker pool was.
    std::string serial = manifestBytes(1);
    EXPECT_EQ(serial, manifestBytes(4));
    EXPECT_EQ(serial, manifestBytes(7));
}

/**
 * Golden counters for gups at scale 0.02 under THP and TPS.  These are
 * the measured-phase numbers the figure benches consume (Fig. 10/11
 * inputs).  If a legitimate model change moves them, re-pin by running:
 *   build/tests/test_golden_stats --gtest_filter='GoldenStats.Gups*'
 * and copying the "actual" values reported in the failure output.
 */
struct Golden
{
    uint64_t accesses;
    uint64_t l1TlbMisses;
    uint64_t tlbMisses;
    uint64_t walkMemRefs;
    uint64_t faults;
    uint64_t promotions;
};

sim::SimStats
runGups(Design d)
{
    RunOptions opts;
    opts.workload = "gups";
    opts.design = d;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    return runExperiment(opts);
}

void
expectGolden(const sim::SimStats &s, const Golden &g)
{
    EXPECT_EQ(s.accesses, g.accesses);
    EXPECT_EQ(s.l1TlbMisses, g.l1TlbMisses);
    EXPECT_EQ(s.tlbMisses, g.tlbMisses);
    EXPECT_EQ(s.walkMemRefs, g.walkMemRefs);
    EXPECT_EQ(s.faults, g.faults);
    EXPECT_EQ(s.osWork.promotions, g.promotions);
}

TEST(GoldenStats, GupsUnderThp)
{
    expectGolden(runGups(Design::Thp),
                 Golden{30000, 3218, 38, 38, 0, 40});
}

TEST(GoldenStats, GupsUnderTps)
{
    expectGolden(runGups(Design::Tps),
                 Golden{30000, 135, 1, 2, 0, 20962});
}

/**
 * Expect the stat tree of @p stats to hash to @p want; on mismatch the
 * failure shows the actual hash (to re-pin after a deliberate model
 * change) and the tree itself (to diff against a known-good run).
 */
void
expectStatsHash(const sim::SimStats &stats, uint64_t want,
                const std::string &what)
{
    std::string tree = stats.toJson().dump();
    uint64_t got = stableHash64(tree);
    EXPECT_EQ(got, want) << what << ": actual 0x" << std::hex << got
                         << std::dec << ", stat tree " << tree;
}

RunOptions
smtCell(const char *workload, Design d)
{
    RunOptions opts;
    opts.workload = workload;
    opts.design = d;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    opts.smt = true;
    return opts;
}

TEST(GoldenStats, SmtStatTrees)
{
    struct Pin
    {
        const char *workload;
        Design design;
        uint64_t hash;
    };
    for (const Pin &pin : {Pin{"mcf", Design::Thp, 0xe836ce4a78882c2full},
                           Pin{"mcf", Design::Tps, 0x42f4da5d132a4d97ull},
                           Pin{"gups", Design::Thp, 0x3bd10e1f88192708ull},
                           Pin{"gups", Design::Tps,
                               0xb0207f595490c806ull}}) {
        RunOptions opts = smtCell(pin.workload, pin.design);
        expectStatsHash(runExperiment(opts), pin.hash, cellLabel(opts));
    }
}

TEST(GoldenStats, SmtBoundariesInsideRounds)
{
    // Epoch, checker and maxAccesses intervals that divide nothing, so
    // the warmup seam, epoch snapshots, invariant sweeps and the stop
    // each fall between the primary's access and the competitor's
    // within one round.
    RunOptions opts = smtCell("gups", Design::Tps);
    opts.epochAccesses = 3333;
    opts.checkEvery = 2501;
    opts.maxAccesses = 10007;
    sim::SimStats stats = runExperiment(opts);
    ASSERT_GT(stats.epochs.size(), 2u);
    ASSERT_EQ(stats.accesses, opts.maxAccesses);
    expectStatsHash(stats, 0x783ec72cf41a72bfull,
                    "gups/tps smt boundaries");
}

TEST(GoldenStats, SmtCompetitorOutlivesPrimary)
{
    // A competitor longer than the primary still takes its access in
    // the round in which the primary runs dry, and only then does the
    // run end; that access reaches the shared cycle model and MMU.
    RunOptions opts = smtCell("gups", Design::Tps);
    auto primary = workloads::makeWorkload("gups", 0.01, 11);
    auto competitor = workloads::makeWorkload("mcf", 0.02, 12);
    os::PhysMemory pm(opts.physBytes);
    sim::EngineConfig ecfg = makeEngineConfig(opts);
    ecfg.epochAccesses = 3333;
    sim::SimStats stats = sim::runSmt(pm, makePolicy(opts.design),
                                      *primary, *competitor, ecfg);
    ASSERT_LT(stats.warmup.accesses + stats.accesses,
              stats.mmu.accesses);
    expectStatsHash(stats, 0xb7cbfaacafeef23eull,
                    "gups/tps smt vs longer mcf");
}

TEST(GoldenStats, TraceReplayStatTree)
{
    // A recorded gcc trace replays through the non-batchable
    // TraceWorkload: one access per next(), with the generator's
    // mmap/munmap churn replayed inline between accesses.
    std::string path = test::tempPath("replay.trace");
    {
        auto live = workloads::makeWorkload("gcc", 0.02, 7);
        sim::recordTrace(*live, path);
    }
    sim::TraceWorkload replay(path);
    ASSERT_FALSE(replay.batchable());
    os::PhysMemory pm(512ull << 20);
    sim::EngineConfig ecfg;
    ecfg.mmu.tlb = designTlbConfig(Design::Thp);
    ecfg.cycle.instsPerAccess = replay.info().instsPerAccess;
    ecfg.epochAccesses = 3333;
    sim::Engine engine(pm, makePolicy(Design::Thp), ecfg);
    engine.addWorkload(replay);
    sim::SimStats stats = engine.run();
    std::remove(path.c_str());
    ASSERT_GT(stats.warmup.accesses, 0u);
    ASSERT_GT(stats.munmapCalls, 0u);
    expectStatsHash(stats, 0x45c564650db3504eull, "gcc trace replay/thp");
}

TEST(GoldenStats, Graph500StatTrees)
{
    // A 144 B/vertex footprint of 2^12 vertices: a scale-12 R-MAT
    // graph with edge factor 8, one for both designs.
    for (auto [design, hash] : {std::pair<Design, uint64_t>
                                    {Design::Thp, 0x7bbb789a108b6b3cull},
                                {Design::Tps, 0x3f2eaad48633eff8ull}}) {
        RunOptions opts;
        opts.workload = "graph500";
        opts.design = design;
        opts.scale = 0.02;
        opts.footprintBytes = 144ull << 12;
        expectStatsHash(runExperiment(opts), hash, cellLabel(opts));
    }
}

TEST(GoldenStats, Graph500MemoConcurrentSetup)
{
    // Several threads per graph set up Graph500 instances of two
    // graphs at once, so the memo sees concurrent first requests for
    // one key and concurrent builds of different keys.  Every
    // instance's stream must match the pin recorded from a serial
    // setup.  ctest runs each case in its own process, so the memo
    // starts empty here.
    constexpr unsigned kPerKey = 4;
    const test::Graph500StreamPin pins[] = {test::kGraph500StreamPins[0],
                                            test::kGraph500StreamPins[3]};
    std::vector<uint64_t> hashes(2 * kPerKey);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < hashes.size(); ++i) {
        threads.emplace_back([&, i] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            hashes[i] = test::graph500StreamHash(
                test::pinConfig(pins[i % 2]));
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    for (unsigned i = 0; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[i], pins[i % 2].hash)
            << "instance " << i << ": actual 0x" << std::hex << hashes[i];
}

TEST(GoldenStats, Graph500DesignsShareOneMemoizedCsr)
{
    // The four design cells of one graph500 row get one graph from the
    // memo; an SMT competitor, seeded apart, gets a graph of its own.
    using workloads::Graph500;
    RunOptions opts;
    opts.workload = "graph500";
    opts.scale = 1.0 / 64;
    std::vector<std::unique_ptr<workloads::Workload>> cells;
    auto csrOf = [&](uint64_t seed) {
        cells.push_back(
            workloads::makeWorkload(opts.workload, opts.scale, seed));
        test::FakeAlloc alloc;
        cells.back()->setup(alloc);
        return dynamic_cast<const Graph500 &>(*cells.back()).csr();
    };
    opts.design = Design::Thp;
    const Graph500::Csr *shared = csrOf(runSeed(opts));
    ASSERT_NE(shared, nullptr);
    for (Design d : {Design::Tps, Design::Colt, Design::Rmm}) {
        opts.design = d;
        EXPECT_EQ(csrOf(runSeed(opts)), shared) << designName(d);
    }
    EXPECT_NE(csrOf(runSeed(opts) + 1000), shared);
}

/** Index of the first element where @p a and @p b differ, or -1. */
template <typename T>
int64_t
firstMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return int64_t(std::min(a.size(), b.size()));
    auto it = std::mismatch(a.begin(), a.end(), b.begin()).first;
    return it == a.end() ? -1 : int64_t(it - a.begin());
}

TEST(GoldenStats, Graph500CsrIdenticalAcrossThreadCounts)
{
    // Every split of the edge stream into thread blocks, even one with
    // more blocks than host cores, builds the one-thread CSR element
    // for element.
    using workloads::Graph500;
    for (unsigned scale : {10u, 13u}) {
        for (const test::Graph500StreamPin &pin :
             test::kGraph500StreamPins) {
            auto serial = Graph500::buildCsr(scale, pin.edgeFactor,
                                             pin.seed, 1);
            ASSERT_EQ(serial->xadj.back(),
                      2 * (uint64_t(pin.edgeFactor) << scale));
            for (unsigned threads : {2u, 3u, 4u, 7u, 16u}) {
                auto csr = Graph500::buildCsr(scale, pin.edgeFactor,
                                              pin.seed, threads);
                std::string what =
                    "scale " + std::to_string(scale) + ", edge factor " +
                    std::to_string(pin.edgeFactor) + ", seed " +
                    std::to_string(pin.seed) + ", " +
                    std::to_string(threads) + " threads";
                EXPECT_EQ(firstMismatch(csr->xadj, serial->xadj), -1)
                    << what;
                EXPECT_EQ(firstMismatch(csr->adj, serial->adj), -1)
                    << what;
            }
        }
    }
}

TEST(GoldenStats, Graph500CsrPinnedAtSweepScale)
{
    // The stream pins are scale 12, where the default build cuts the
    // stream into at most two blocks.  perfbench graph_sweep's 2^16
    // vertices at edge factor 8 take one block per host core (up to
    // 16); the hashes were recorded from the one-thread build.
    auto bytes = [](const auto &v) {
        return stableHash64(std::string_view(
            reinterpret_cast<const char *>(v.data()),
            v.size() * sizeof(v[0])));
    };
    for (auto [seed, hash] :
         {std::pair<uint64_t, uint64_t>{7, 0xe47afe0f97903da7ull},
          {0x1234567890abcdefull, 0xa69b6ac5ccc3100cull}}) {
        auto csr = workloads::Graph500::buildCsr(16, 8, seed);
        uint64_t got = hashCombine(bytes(csr->xadj), bytes(csr->adj));
        EXPECT_EQ(got, hash) << "seed " << seed << ": actual 0x" << std::hex
                             << got;
    }
}

TEST(GoldenStats, CensusOfFinalAddressSpace)
{
    struct Pin
    {
        const char *workload;
        Design design;
        uint64_t hash;
    };
    for (const Pin &pin :
         {Pin{"gcc", Design::Tps, 0x8b626029b74ac443ull},
          Pin{"mcf", Design::Base4k, 0x6f91cfb7b018a252ull}}) {
        RunOptions opts;
        opts.workload = pin.workload;
        opts.design = pin.design;
        opts.scale = 0.02;
        Census census;
        RunHooks hooks;
        hooks.census = &census;
        runExperiment(opts, hooks);
        std::string text;
        for (const auto &[bits, pages] : census.pageSizes.buckets())
            text +=
                std::to_string(bits) + ":" + std::to_string(pages) + ",";
        text += "mapped=" + std::to_string(census.mappedBytes) +
                ",touched=" + std::to_string(census.touchedPages) +
                ",chunks2m=" + std::to_string(census.chunks2m);
        uint64_t got = stableHash64(text);
        EXPECT_EQ(got, pin.hash) << cellLabel(opts) << ": actual 0x"
                                 << std::hex << got << ", census " << text;
    }
}

} // namespace
} // namespace tps::core
