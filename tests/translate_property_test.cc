/**
 * @file
 * Property test: chunking is invisible.
 *
 * The engine batches accesses into chunks; the chunk size
 * is supposed to affect performance only.  This suite makes that claim
 * falsifiable by randomized search instead of enumerated cases: a
 * seeded Pcg32 draws (workload, design, scale, chunk size) tuples and
 * every draw must produce hit/miss/walk counters identical between
 * chunk size 1 (the degenerate per-access batch) and the drawn size --
 * and identical to the per-access oracle.  A draw that distinguishes them
 * is a minimal repro by construction: the failure message carries the
 * full cell identity.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "util/rng.hh"
#include "workloads/registry.hh"

namespace tps::core {
namespace {

constexpr Design kDesigns[] = {
    Design::Base4k, Design::Thp,  Design::Tps,
    Design::TpsEager, Design::Rmm, Design::Colt,
};

/** The counters the chunked path accumulates in its ChunkDelta. */
void
expectSameCounters(const sim::SimStats &a, const sim::SimStats &b,
                   const std::string &what)
{
#define TPS_EQ(field) EXPECT_EQ(a.field, b.field) << what << ": " #field
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
    TPS_EQ(mmu.l1Hits);
    TPS_EQ(mmu.l1Misses);
    TPS_EQ(mmu.l2Hits);
    TPS_EQ(mmu.walks);
    TPS_EQ(mmu.adPteWrites);
    TPS_EQ(walker.walks);
    TPS_EQ(walker.accesses);
    TPS_EQ(memsys.accesses);
    TPS_EQ(memsys.l1Hits);
    TPS_EQ(memsys.llcHits);
    TPS_EQ(memsys.dramAccesses);
    TPS_EQ(osWork.faults);
    TPS_EQ(osWork.promotions);
#undef TPS_EQ
}

RunOptions
drawCell(Pcg32 &rng)
{
    const std::vector<std::string> &suite = workloads::profilingSuite();
    RunOptions opts;
    opts.workload = suite[rng.below(uint32_t(suite.size()))];
    opts.design = kDesigns[rng.below(6)];
    // Scales in [0.005, 0.02]: large enough to fault, promote and
    // churn the TLBs, small enough to keep 24 draws in test budget.
    opts.scale = 0.005 + 0.005 * rng.below(4);
    opts.physBytes = 512ull << 20;
    if (opts.design == Design::Tps && rng.chance(0.25))
        opts.tpsTlbSkewed = true;
    return opts;
}

std::string
drawName(const RunOptions &opts, uint64_t chunk)
{
    std::string name = cellLabel(opts);
    if (opts.tpsTlbSkewed)
        name += "/skewed";
    name += "/scale=" + std::to_string(opts.scale);
    name += "/chunk=" + std::to_string(chunk);
    return name;
}

TEST(TranslateProperty, ChunkSizeNeverReachesCounters)
{
    // Fixed seed: the draws (and thus the cells exercised) are stable
    // run to run, so a failure here reproduces exactly.
    Pcg32 rng(0x7451a7e5u, 0xd1ffe2e47u);
    for (int draw = 0; draw < 24; ++draw) {
        RunOptions cell = drawCell(rng);
        // Adversarial chunk sizes: tiny primes that misalign with
        // everything, plus around the default 4096.
        uint64_t chunk = 2 + rng.below64(97);
        if (rng.chance(0.25))
            chunk = 4095 + rng.below64(3);

        RunOptions unit = cell;
        unit.chunkAccesses = 1;
        sim::SimStats want = runExperiment(unit);

        RunOptions chunked = cell;
        chunked.chunkAccesses = chunk;
        expectSameCounters(want, runExperiment(chunked),
                           drawName(cell, chunk));

        // And both agree with the oracle kernel (transitively ties
        // every chunk size to the oracle, not just to each other).
        RunOptions reference = cell;
        reference.referencePath = true;
        expectSameCounters(want, runExperiment(reference),
                           drawName(cell, 0) + "/reference");
    }
}

TEST(TranslateProperty, EveryDesignAgreesAtAdversarialChunks)
{
    // Deterministic sweep backing the random one: all six designs at
    // chunk sizes 1, 3 and the default, one TLB-hostile workload.
    for (Design d : kDesigns) {
        RunOptions base;
        base.workload = "gups";
        base.design = d;
        base.scale = 0.01;
        base.physBytes = 512ull << 20;

        RunOptions reference = base;
        reference.referencePath = true;
        sim::SimStats want = runExperiment(reference);

        for (uint64_t chunk : {uint64_t(1), uint64_t(3),
                               uint64_t(4096)}) {
            RunOptions fast = base;
            fast.chunkAccesses = chunk;
            expectSameCounters(want, runExperiment(fast),
                               drawName(base, chunk));
        }
    }
}

} // namespace
} // namespace tps::core
