/**
 * @file
 * Trace record/replay tests: round-trip fidelity, header metadata,
 * mid-run mmap/munmap events, and equivalence of simulation results
 * between a live workload and its recorded trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/tps_system.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"
#include "temp_path.hh"
#include "workloads/gups.hh"
#include "workloads/registry.hh"

namespace tps::sim {
namespace {

/** Temp path helper (unique per process and test). */
std::string
tracePath(const char *name)
{
    return test::tempPath(std::string(name) + ".trace");
}

TEST(Trace, RoundTripPreservesStream)
{
    workloads::GupsConfig cfg;
    cfg.tableBytes = 4ull << 20;
    cfg.updates = 2000;
    std::string path = tracePath("roundtrip");
    {
        workloads::Gups gups(cfg);
        uint64_t written = recordTrace(gups, path);
        EXPECT_EQ(written,
                  gups.warmupAccesses() + cfg.updates * 2);
    }

    // Replay against a fresh instance of the same generator: the
    // streams must agree access for access (offsets and flags).
    TraceWorkload replay(path);
    workloads::Gups live(cfg);
    EXPECT_EQ(replay.info().instsPerAccess,
              live.info().instsPerAccess);
    EXPECT_EQ(replay.info().footprintBytes, cfg.tableBytes);

    // Drive both through identical allocators so VAs line up.
    struct BumpAlloc : AllocApi
    {
        vm::Vaddr cursor = 1ull << 40;
        vm::Vaddr
        mmap(uint64_t bytes) override
        {
            vm::Vaddr r = cursor;
            cursor += alignUp(bytes, 1ull << 30);
            return r;
        }
        void munmap(vm::Vaddr) override {}
    };
    BumpAlloc a, b;
    replay.setup(a);
    live.setup(b);
    // Warmup counts only exist after setup() creates the init sweep.
    EXPECT_EQ(replay.warmupAccesses(), live.warmupAccesses());
    MemAccess ra, lb;
    uint64_t n = 0;
    while (true) {
        bool more_r = replay.next(ra);
        bool more_l = live.next(lb);
        ASSERT_EQ(more_r, more_l) << "at " << n;
        if (!more_r)
            break;
        ASSERT_EQ(ra.va, lb.va) << "at " << n;
        ASSERT_EQ(ra.write, lb.write) << "at " << n;
        ASSERT_EQ(ra.dependsOnPrev, lb.dependsOnPrev) << "at " << n;
        ++n;
    }
    EXPECT_GT(n, 4000u);
    std::remove(path.c_str());
}

TEST(Trace, CapTruncatesAndPatchesWarmup)
{
    workloads::GupsConfig cfg;
    cfg.tableBytes = 4ull << 20;
    std::string path = tracePath("cap");
    workloads::Gups gups(cfg);
    uint64_t written = recordTrace(gups, path, 100);
    EXPECT_EQ(written, 100u);
    TraceWorkload replay(path);
    EXPECT_EQ(replay.info().defaultAccesses, 100u);
    // The cap cut into the init sweep; warmup must not exceed it.
    EXPECT_LE(replay.warmupAccesses(), 100u);
    std::remove(path.c_str());
}

TEST(Trace, MidRunMmapEventsReplay)
{
    // gcc allocates and retires regions during the run; the replay
    // must surface the same mmap/munmap sequence through AllocApi.
    auto live = workloads::makeWorkload("gcc", 0.01);
    std::string path = tracePath("gcc");
    recordTrace(*live, path, 60000);

    TraceWorkload replay(path);
    struct CountingAlloc : AllocApi
    {
        vm::Vaddr cursor = 1ull << 40;
        int mmaps = 0, munmaps = 0;
        vm::Vaddr
        mmap(uint64_t bytes) override
        {
            ++mmaps;
            vm::Vaddr r = cursor;
            cursor += alignUp(bytes, 1ull << 30);
            return r;
        }
        void munmap(vm::Vaddr) override { ++munmaps; }
    } alloc;
    replay.setup(alloc);
    MemAccess acc;
    while (replay.next(acc)) {
    }
    EXPECT_GT(alloc.mmaps, 1);
    std::remove(path.c_str());
}

TEST(Trace, SimulationEquivalence)
{
    // Simulating the replayed trace must give the same TLB statistics
    // as simulating the live workload (same policy, same hardware).
    workloads::GupsConfig cfg;
    cfg.tableBytes = 32ull << 20;
    cfg.updates = 20000;
    std::string path = tracePath("equiv");
    {
        workloads::Gups gups(cfg);
        recordTrace(gups, path);
    }

    auto run = [&](workloads::Workload &w) {
        os::PhysMemory pm(256ull << 20);
        EngineConfig ecfg;
        ecfg.mmu.tlb.design = tlb::TlbDesign::Tps;
        ecfg.cycle.instsPerAccess = w.info().instsPerAccess;
        Engine engine(pm, core::makePolicy(core::Design::Tps), ecfg);
        engine.addWorkload(w);
        return engine.run();
    };

    workloads::Gups live(cfg);
    TraceWorkload replay(path);
    SimStats a = run(live);
    SimStats b = run(replay);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1TlbMisses, b.l1TlbMisses);
    EXPECT_EQ(a.walkMemRefs, b.walkMemRefs);
    EXPECT_EQ(a.faults, b.faults);
    std::remove(path.c_str());
}

TEST(Trace, RejectsGarbageFiles)
{
    std::string path = tracePath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_EXIT(TraceWorkload replay(path),
                ::testing::ExitedWithCode(1), "not a tps trace");
    std::remove(path.c_str());
}

} // namespace
} // namespace tps::sim
