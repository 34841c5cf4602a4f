/**
 * @file
 * Invariant-checker tests: a clean post-run state passes every check
 * under every design, and each deterministic fault-injection class is
 * caught by exactly the checker it targets (the negative tests that
 * prove the checkers actually fire).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "check/invariant_checker.hh"
#include "core/tps_system.hh"
#include "os/phys_memory.hh"
#include "sim/engine.hh"
#include "tlb/tlb_hierarchy.hh"
#include "util/sim_error.hh"
#include "workloads/registry.hh"

namespace tps::check {
namespace {

core::RunOptions
smallRun(core::Design design)
{
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = design;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    return opts;
}

/** A completed small run with its live state exposed for checking. */
struct Rig
{
    explicit Rig(core::Design design = core::Design::Tps)
        : opts(smallRun(design)),
          pm(std::make_unique<os::PhysMemory>(opts.physBytes)),
          engine(std::make_unique<sim::Engine>(
              *pm, core::makePolicy(opts.design),
              core::makeEngineConfig(opts)))
    {
        workload = workloads::makeWorkload(opts.workload, opts.scale,
                                           core::runSeed(opts));
        engine->addWorkload(*workload);
        engine->run();
    }

    InvariantChecker::Targets
    checkerTargets()
    {
        InvariantChecker::Targets t;
        t.as = &engine->addressSpace();
        t.phys = pm.get();
        t.tlb = &engine->mmu().tlbs();
        return t;
    }

    FaultInjector::Targets
    injectorTargets()
    {
        FaultInjector::Targets t;
        t.as = &engine->addressSpace();
        t.phys = pm.get();
        t.tlb = &engine->mmu().tlbs();
        return t;
    }

    /**
     * Park a deliberately corrupted rig until process exit instead of
     * destroying it: OS teardown runs its own accounting asserts --
     * programmer-error checks that (rightly) panic on the very state
     * the fault injector fabricated.  The keeper containers are
     * reachable from a static root, so leak checkers stay quiet and no
     * destructor ever sees the corruption.
     */
    void
    quarantine()
    {
        struct Keeper
        {
            std::vector<std::unique_ptr<sim::Engine>> engines;
            std::vector<std::unique_ptr<os::PhysMemory>> pms;
            std::vector<std::unique_ptr<workloads::Workload>> wls;
        };
        static Keeper *keeper = new Keeper;
        keeper->engines.push_back(std::move(engine));
        keeper->pms.push_back(std::move(pm));
        keeper->wls.push_back(std::move(workload));
    }

    core::RunOptions opts;
    std::unique_ptr<os::PhysMemory> pm;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<workloads::Workload> workload;
};

constexpr core::Design kDesigns[] = {
    core::Design::Base4k, core::Design::Thp,  core::Design::Tps,
    core::Design::TpsEager, core::Design::Rmm, core::Design::Colt,
};

constexpr InvariantClass kClasses[] = {
    InvariantClass::PteAlignment,
    InvariantClass::TlbCoherence,
    InvariantClass::FrameAccounting,
    InvariantClass::VmaConsistency,
};

TEST(InvariantChecker, CleanStateOkAcrossDesigns)
{
    for (core::Design design : kDesigns) {
        SCOPED_TRACE(core::designName(design));
        Rig rig(design);
        CheckReport report =
            InvariantChecker(rig.checkerTargets()).checkAll();
        EXPECT_TRUE(report.ok()) << report.summary();
        EXPECT_NO_THROW(
            InvariantChecker(rig.checkerTargets()).throwIfBad());
    }
}

TEST(FaultInjection, EachFaultTripsExactlyItsChecker)
{
    struct MatrixRow
    {
        FaultClass fault;
        InvariantClass intended;
        /**
         * Flush the TLB before injecting: these faults mutate PTEs of
         * pages the TLB may legitimately cache, and a stale-but-was-
         * correct TLB entry would (rightly) also trip the coherence
         * check.  The flush keeps the blast radius to one checker.
         */
        bool flushTlb;
    };
    const MatrixRow kMatrix[] = {
        {FaultClass::PteBitFlip, InvariantClass::PteAlignment, true},
        {FaultClass::SkippedInvalidation, InvariantClass::TlbCoherence,
         false},
        {FaultClass::LeakedBuddyBlock, InvariantClass::FrameAccounting,
         false},
        {FaultClass::MisalignedGrant, InvariantClass::PteAlignment,
         true},
        {FaultClass::ReservationOverlap, InvariantClass::VmaConsistency,
         false},
    };
    static_assert(std::size(kMatrix) == kAllFaultClasses.size(),
                  "every fault class needs a matrix row");

    for (const MatrixRow &row : kMatrix) {
        SCOPED_TRACE(faultClassName(row.fault));
        Rig rig(core::Design::Tps);
        if (row.flushTlb)
            rig.engine->mmu().tlbs().flushAll();

        FaultInjector injector(rig.injectorTargets(), /*seed=*/42);
        ASSERT_TRUE(injector.inject(row.fault))
            << "fault not injectable in this state";

        CheckReport report =
            InvariantChecker(rig.checkerTargets()).checkAll();
        EXPECT_TRUE(report.has(row.intended)) << report.summary();
        for (InvariantClass cls : kClasses) {
            if (cls != row.intended) {
                EXPECT_FALSE(report.has(cls))
                    << invariantClassName(cls) << " cross-fired: "
                    << report.summary();
            }
        }
        rig.quarantine();
    }
}

TEST(FaultInjection, InjectionIsDeterministic)
{
    // Same seed, same state, same fault -> same violation messages.
    auto corrupt_summary = [] {
        Rig rig(core::Design::Tps);
        rig.engine->mmu().tlbs().flushAll();
        FaultInjector injector(rig.injectorTargets(), /*seed=*/7);
        EXPECT_TRUE(injector.inject(FaultClass::PteBitFlip));
        std::string summary = InvariantChecker(rig.checkerTargets())
                                  .checkAll()
                                  .summary();
        rig.quarantine();
        return summary;
    };
    EXPECT_EQ(corrupt_summary(), corrupt_summary());
}

TEST(InvariantChecker, ThrowIfBadThrowsCorruptState)
{
    Rig rig(core::Design::Tps);
    FaultInjector injector(rig.injectorTargets(), /*seed=*/3);
    ASSERT_TRUE(injector.inject(FaultClass::LeakedBuddyBlock));
    try {
        InvariantChecker(rig.checkerTargets()).throwIfBad();
        FAIL() << "expected SimError{CorruptState}";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptState);
        EXPECT_NE(std::string(e.what()).find("invariant"),
                  std::string::npos);
    }
    rig.quarantine();
}

TEST(InvariantChecker, ParanoidRunOptionsPassOnCleanRuns)
{
    // Both checking modes over a healthy run: the in-loop periodic
    // checker and the post-run paranoid sweep find nothing.
    for (core::Design design :
         {core::Design::Thp, core::Design::Tps}) {
        SCOPED_TRACE(core::designName(design));
        core::RunOptions opts = smallRun(design);
        opts.paranoid = true;
        opts.checkEvery = 5000;
        EXPECT_NO_THROW((void)core::runExperiment(opts));
    }
}

TEST(InvariantChecker, ParanoidCatchesFragmentedRuns)
{
    // The fragmenter holds frames outside the ledger; the final sweep
    // must account for them (via the exempt-frames slack) rather than
    // reporting a phantom leak.
    core::RunOptions opts = smallRun(core::Design::Tps);
    opts.fragmented = true;
    opts.fragmenter.targetFreeFraction = 0.4;
    opts.paranoid = true;
    EXPECT_NO_THROW((void)core::runExperiment(opts));
}

/**
 * The checker's findings on bare physical memory (no address space):
 * the buddy free lists against the frame ledger, nothing else.
 */
CheckReport
checkFrames(const os::PhysMemory &pm)
{
    InvariantChecker::Targets t;
    t.phys = &pm;
    CheckReport report = InvariantChecker(t).checkAll();
    for (const Violation &v : report.violations())
        EXPECT_EQ(v.cls, InvariantClass::FrameAccounting) << v.detail;
    return report;
}

TEST(InvariantChecker, MergedDoubleFreeIsFrameAccounting)
{
    // The first free merges frame 0 back into the order-10 block, so
    // the second finds no order-0 copy to trip over and passes inline;
    // the free lists then hold 1025 frames of 1024.
    os::PhysMemory pm(4ull << 20);
    os::BuddyAllocator &buddy = pm.buddy();
    ASSERT_EQ(buddy.alloc(0), os::Pfn{0});
    buddy.free(0, 0);
    ASSERT_TRUE(checkFrames(pm).ok());
    buddy.free(0, 0);
    EXPECT_EQ(buddy.freeFrames(), 1025u);
    EXPECT_TRUE(checkFrames(pm).has(InvariantClass::FrameAccounting));
}

TEST(InvariantChecker, FreeInsideImplicitRunIsFrameAccounting)
{
    // 2 GB is two maximal blocks, both still in the implicit run: a
    // frame there was never handed out, so freeing it is a double free
    // that no explicit free list can see.
    os::PhysMemory pm(2ull << 30);
    os::BuddyAllocator &buddy = pm.buddy();
    ASSERT_EQ(buddy.implicitBlocks(), 2u);
    ASSERT_TRUE(checkFrames(pm).ok());
    buddy.free((os::Pfn{1} << os::BuddyAllocator::kMaxOrder) + 5, 0);
    EXPECT_TRUE(checkFrames(pm).has(InvariantClass::FrameAccounting));
}

} // namespace
} // namespace tps::check
