/**
 * @file
 * Differential reference-model tests for the batched translate kernel.
 *
 * The engine's one loop runs either the devirtualized batched kernel
 * (the default) or the per-access oracle (referencePath: chunks of one
 * access through the virtually dispatched Mmu::access).  The two must
 * be bit-identical: not approximately equal, not equal-within-tolerance
 * -- every statistic, every epoch sample, every manifest byte, every
 * event-trace byte.  These tests sweep the full (workload x design)
 * grid at a small scale, run each cell through both kernels, and diff
 * the results:
 *
 *  1. SimStats field-identical for every registry workload under every
 *     design, including the skewed-associative TPS TLB variant, and
 *     for SMT cells (one-access primary chunks, each followed by one
 *     competitor access).
 *  2. Host-free run manifests (options, config, stat tree, epoch
 *     series) byte-identical between the two kernels, SMT included.
 *  3. Event traces byte-identical between the two kernels.
 *  4. Chunk size is performance-only: epoch boundaries that land
 *     mid-chunk (sizes 1, 7 and 4096 against a non-divisible epoch
 *     interval) produce identical epoch series.
 *  5. The equivalences hold through the ExperimentRunner at --jobs=1
 *     and --jobs=4.
 *  6. Profiling times whole chunks: a profiled cell runs the batched
 *     loop and computes exactly what an unprofiled one does.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/profile.hh"
#include "obs/run_manifest.hh"
#include "workloads/registry.hh"

namespace tps::core {
namespace {

/** Assert every field of two SimStats is identical (no tolerance). */
void
expectIdentical(const sim::SimStats &a, const sim::SimStats &b,
                const std::string &what)
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
    TPS_EQ(epochInterval);
#undef TPS_EQ
    ASSERT_EQ(a.epochs.size(), b.epochs.size()) << what;
    for (size_t i = 0; i < a.epochs.size(); ++i) {
        const sim::EpochSample &x = a.epochs[i];
        const sim::EpochSample &y = b.epochs[i];
#define TPS_EPOCH_EQ(field)                                                 \
    EXPECT_EQ(x.field, y.field) << what << ": epoch " << i << " " #field
        TPS_EPOCH_EQ(accesses);
        TPS_EPOCH_EQ(instructions);
        TPS_EPOCH_EQ(cycles);
        TPS_EPOCH_EQ(l1TlbMisses);
        TPS_EPOCH_EQ(l2TlbHits);
        TPS_EPOCH_EQ(walks);
        TPS_EPOCH_EQ(walkMemRefs);
        TPS_EPOCH_EQ(walkCycles);
        TPS_EPOCH_EQ(faults);
        TPS_EPOCH_EQ(osCycles);
#undef TPS_EPOCH_EQ
    }
}

constexpr Design kDesigns[] = {
    Design::Base4k, Design::Thp,  Design::Tps,
    Design::TpsEager, Design::Rmm, Design::Colt,
};

/**
 * The full differential grid: every registry workload under every
 * design, plus the skewed-associative TPS TLB (the sixth TLB type,
 * reached through a design flag rather than a design of its own).
 */
std::vector<RunOptions>
fullGrid(double scale = 0.01)
{
    std::vector<RunOptions> cells;
    for (const std::string &wl : workloads::profilingSuite()) {
        for (Design d : kDesigns) {
            RunOptions opts;
            opts.workload = wl;
            opts.design = d;
            opts.scale = scale;
            opts.physBytes = 512ull << 20;
            cells.push_back(opts);
        }
        RunOptions skewed;
        skewed.workload = wl;
        skewed.design = Design::Tps;
        skewed.tpsTlbSkewed = true;
        skewed.scale = scale;
        skewed.physBytes = 512ull << 20;
        cells.push_back(skewed);
    }
    // SMT cells: one-access primary chunks, each followed by one
    // competitor access, with epoch and checker intervals that divide
    // nothing so their boundaries land inside rounds.
    for (const char *wl : {"gups", "mcf", "xsbench"}) {
        for (Design d : {Design::Thp, Design::Tps, Design::Colt,
                         Design::Rmm}) {
            RunOptions smt;
            smt.workload = wl;
            smt.design = d;
            smt.scale = scale;
            smt.physBytes = 512ull << 20;
            smt.smt = true;
            smt.epochAccesses = 3333;
            smt.checkEvery = 2501;
            cells.push_back(smt);
        }
    }
    return cells;
}

std::string
cellName(const RunOptions &opts)
{
    std::string name = cellLabel(opts);
    if (opts.tpsTlbSkewed)
        name += "/skewed";
    if (opts.smt)
        name += "/smt";
    return name;
}

TEST(Differential, FastPathBitIdenticalAcrossFullGrid)
{
    for (const RunOptions &cell : fullGrid()) {
        RunOptions fast = cell;
        RunOptions reference = cell;
        reference.referencePath = true;
        expectIdentical(runExperiment(fast), runExperiment(reference),
                        cellName(cell));
    }
}

/** Host-free manifest bytes for @p cells run down one path. */
std::string
manifestBytes(std::vector<RunOptions> cells, bool reference_path,
              unsigned jobs)
{
    for (RunOptions &cell : cells) {
        cell.referencePath = reference_path;
        cell.epochAccesses = 5000;
    }
    ExperimentRunner runner(jobs);
    std::vector<sim::SimStats> stats = runner.run(cells);
    std::vector<obs::CellArtifact> artifacts;
    for (size_t i = 0; i < cells.size(); ++i) {
        obs::CellArtifact cell;
        cell.options = cells[i];
        cell.stats = stats[i];
        artifacts.push_back(std::move(cell));
    }
    obs::ManifestInfo info;
    info.bench = "differential";
    info.jobs = jobs;
    info.includeHost = false;
    return obs::manifestJson(info, artifacts).dump(2);
}

TEST(Differential, ManifestBytesIdenticalFastVsReference)
{
    // A smaller grid (the three paper-central designs over the
    // evaluation-suite heavy hitters) keeps this byte-level pass
    // quick; the full grid is covered field-wise above.
    std::vector<RunOptions> cells;
    for (const char *wl : {"gups", "mcf", "xsbench", "graph500"}) {
        for (Design d : {Design::Thp, Design::Tps, Design::Colt}) {
            for (bool smt : {false, true}) {
                RunOptions opts;
                opts.workload = wl;
                opts.design = d;
                opts.scale = 0.01;
                opts.physBytes = 512ull << 20;
                opts.smt = smt;
                cells.push_back(opts);
            }
        }
    }
    std::string fast = manifestBytes(cells, false, 1);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, manifestBytes(cells, true, 1));
    // The same equivalence through a 4-wide worker pool.
    EXPECT_EQ(fast, manifestBytes(cells, false, 4));
    EXPECT_EQ(fast, manifestBytes(cells, true, 4));
}

TEST(Differential, EpochBoundariesMidChunk)
{
    // Chunk sizes that leave epoch boundaries nowhere near chunk
    // boundaries: with epochAccesses = 3333, a 4096-access chunk
    // spans whole epochs and a 7-access chunk straddles every
    // boundary.  The epoch series must not notice.
    for (Design d : {Design::Thp, Design::Tps}) {
        RunOptions base;
        base.workload = "gups";
        base.design = d;
        base.scale = 0.02;
        base.physBytes = 512ull << 20;
        base.epochAccesses = 3333;

        RunOptions reference = base;
        reference.referencePath = true;
        sim::SimStats want = runExperiment(reference);
        ASSERT_GT(want.epochs.size(), 2u);

        for (uint64_t chunk : {uint64_t(1), uint64_t(7),
                               uint64_t(4096)}) {
            RunOptions fast = base;
            fast.chunkAccesses = chunk;
            expectIdentical(want, runExperiment(fast),
                            cellName(base) + "/chunk=" +
                                std::to_string(chunk));
        }
    }
}

TEST(Differential, WarmupBoundaryMidChunk)
{
    // Workloads with a warmup phase reset statistics mid-stream; the
    // reset must land on the same access whatever the chunk size.
    RunOptions base;
    base.workload = "xsbench";
    base.design = Design::Tps;
    base.scale = 0.01;
    base.physBytes = 512ull << 20;

    RunOptions reference = base;
    reference.referencePath = true;
    sim::SimStats want = runExperiment(reference);
    ASSERT_GT(want.warmup.accesses, 0u);

    for (uint64_t chunk : {uint64_t(1), uint64_t(7), uint64_t(4096)}) {
        RunOptions fast = base;
        fast.chunkAccesses = chunk;
        expectIdentical(want, runExperiment(fast),
                        "xsbench/tps/chunk=" + std::to_string(chunk));
    }
}

TEST(Differential, MaxAccessesBoundaryMidChunk)
{
    // A maxAccesses cap that is prime (and far from any chunk
    // multiple) must stop both paths on exactly the same access.
    RunOptions base;
    base.workload = "gups";
    base.design = Design::Tps;
    base.scale = 0.02;
    base.physBytes = 512ull << 20;
    base.maxAccesses = 10007;

    RunOptions reference = base;
    reference.referencePath = true;
    sim::SimStats want = runExperiment(reference);

    for (uint64_t chunk : {uint64_t(1), uint64_t(7), uint64_t(4096)}) {
        RunOptions fast = base;
        fast.chunkAccesses = chunk;
        expectIdentical(want, runExperiment(fast),
                        "gups/tps/maxAccesses/chunk=" +
                            std::to_string(chunk));
    }
}

TEST(Differential, ProfiledRunTakesTheBatchedLoop)
{
    // --profile times whole chunks, so attaching it changes neither the
    // loop the cell takes nor a byte of what it computes.
    RunOptions cell;
    cell.workload = "gups";
    cell.design = Design::Tps;
    cell.scale = 0.02;
    cell.physBytes = 512ull << 20;
    cell.epochAccesses = 5000;

    obs::ProfileRegistry profile;
    RunHooks hooks;
    hooks.profile = &profile;
    sim::SimStats profiled = runExperiment(cell, hooks);
    sim::SimStats plain = runExperiment(cell);
    expectIdentical(plain, profiled, "gups/tps/profiled");
    auto manifest = [&](const sim::SimStats &stats) {
        obs::CellArtifact artifact;
        artifact.options = cell;
        artifact.stats = stats;
        obs::ManifestInfo info;
        info.bench = "differential";
        info.includeHost = false;
        return obs::manifestJson(info, {artifact}).dump(2);
    };
    EXPECT_EQ(manifest(plain), manifest(profiled));

    // One translate timing per chunk, one workload-next timing per
    // nextBatch() call: the chunks plus the empty batch that ends the
    // run.  Chunks span many accesses, so both counts sit far below
    // the access count.
    const auto &translate = profile.entry(obs::ProfPhase::Translate);
    const auto &next = profile.entry(obs::ProfPhase::WorkloadNext);
    EXPECT_EQ(profile.entry(obs::ProfPhase::Setup).calls, 1u);
    EXPECT_EQ(translate.calls + 1, next.calls);
    uint64_t accesses = plain.warmup.accesses + plain.accesses;
    EXPECT_GT(translate.calls, 0u);
    EXPECT_LT(translate.calls * 2, accesses);
}

TEST(Differential, ParanoidCheckerAgreesAcrossPaths)
{
    // In-run invariant sweeps observe intermediate state; they must
    // see the same machine at the same access counts on both paths.
    RunOptions base;
    base.workload = "gups";
    base.design = Design::Tps;
    base.scale = 0.01;
    base.physBytes = 512ull << 20;
    base.checkEvery = 2500;
    base.paranoid = true;

    RunOptions reference = base;
    reference.referencePath = true;
    expectIdentical(runExperiment(base), runExperiment(reference),
                    "gups/tps/paranoid");
}

} // namespace
} // namespace tps::core
