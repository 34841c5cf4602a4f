#include "sim/engine.hh"

#include <algorithm>
#include <chrono>
#include <optional>

#include "check/invariant_checker.hh"
#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"
#include "util/stats.hh"

namespace tps::sim {

double
EpochSample::mpki() const
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l1TlbMisses) /
                     static_cast<double>(instructions);
}

double
EpochSample::walkCycleFraction() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(walkCycles) /
                             static_cast<double>(cycles);
}

double
SimStats::mpki() const
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l1TlbMisses) /
                     static_cast<double>(instructions);
}

double
SimStats::walkCycleFraction() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(walkCycles) /
                             static_cast<double>(cycles);
}

uint64_t
SimStats::measuredOsCycles() const
{
    uint64_t total = osWork.totalCycles();
    return total > warmup.osCycles ? total - warmup.osCycles : 0;
}

double
SimStats::systemTimeFraction() const
{
    uint64_t sys = measuredOsCycles();
    uint64_t total = cycles + sys;
    return total == 0 ? 0.0
                      : static_cast<double>(sys) /
                            static_cast<double>(total);
}

double
SimStats::fullRunSystemTimeFraction() const
{
    uint64_t sys = osWork.totalCycles();
    uint64_t total = cycles + warmup.cycles + sys;
    return total == 0 ? 0.0
                      : static_cast<double>(sys) /
                            static_cast<double>(total);
}

Engine::Engine(os::PhysMemory &pm,
               std::unique_ptr<os::PagingPolicy> policy, EngineConfig cfg)
    : cfg_(cfg), memsys_(cfg.memsys),
      as_(std::make_unique<os::AddressSpace>(pm, std::move(policy),
                                             cfg.addressSpace)),
      cycle_(cfg.cycle)
{
    mmu_ = std::make_unique<Mmu>(*as_, &memsys_, cfg_.mmu);
}

void
Engine::addWorkload(workloads::Workload &w)
{
    workloads_.push_back(&w);
}

vm::Vaddr
Engine::mmap(uint64_t bytes)
{
    ++mmapCalls_;
    return as_->mmap(bytes, true);
}

void
Engine::munmap(vm::Vaddr start)
{
    ++munmapCalls_;
    as_->munmap(start);
}

void
Engine::setEventTrace(obs::EventTrace *trace)
{
    trace_ = trace;
    mmu_->setEventTrace(trace);
    as_->setEventTrace(trace);
}

void
Engine::setProfile(obs::ProfileRegistry *profile)
{
    profile_ = profile;
    mmu_->setProfile(profile);
}

void
Engine::setMemTelemetry(obs::MemTelemetry *tel)
{
    memTel_ = tel;
    as_->setMemTelemetry(tel);
}

namespace {

/** The devirtualized translate: the L1 probe chain fixed at compile time. */
template <bool HasColt, bool HasSmall, int TpsKind, bool HasLarge>
struct FastKernel
{
    static MmuAccessResult
    access(Mmu &mmu, vm::Vaddr va, bool write)
    {
        return mmu.accessFast<HasColt, HasSmall, TpsKind, HasLarge>(va,
                                                                    write);
    }
};

/** The oracle translate: virtual TLB dispatch through Mmu::access. */
struct OracleKernel
{
    static MmuAccessResult
    access(Mmu &mmu, vm::Vaddr va, bool write)
    {
        return mmu.access(va, write);
    }
};

} // namespace

template <class Kernel, bool Traced>
void
Engine::translateChunk(const MemAccess *acc, size_t count,
                       uint64_t &trace_time, ChunkDelta &d)
{
    const TlbTimingMode timing = cfg_.timing;
    const unsigned stlb_penalty = cfg_.mmu.stlbHitPenalty;
    for (size_t i = 0; i < count; ++i) {
        // The trace clock is the global access ordinal (any thread),
        // 1-based, and keeps counting across the warmup boundary.
        if constexpr (Traced)
            trace_->setTime(++trace_time);
        MmuAccessResult res = Kernel::access(*mmu_, acc[i].va, acc[i].write);
        unsigned mem_cycles = memsys_.access(res.pa);
        unsigned translation = res.translationCycles;
        if (timing == TlbTimingMode::PerfectL1)
            translation = 0;
        else if (timing == TlbTimingMode::PerfectL2)
            translation = res.level == tlb::TlbHitLevel::L1
                              ? 0
                              : stlb_penalty;
        cycle_.onAccess(translation, mem_cycles, acc[i].dependsOnPrev);
        if (res.level != tlb::TlbHitLevel::L1) {
            ++d.l1TlbMisses;
            if (res.level == tlb::TlbHitLevel::L2) {
                ++d.l2TlbHits;
                d.stlbPenaltyCycles += translation;
            } else {
                ++d.tlbMisses;
                d.walkCycles += translation;
            }
        }
        if (res.faulted) [[unlikely]]
            ++d.faults;
    }
}

template <class Kernel>
void
Engine::translateWith(const MemAccess *acc, size_t count,
                      uint64_t &trace_time, ChunkDelta &d)
{
    if (trace_)
        translateChunk<Kernel, true>(acc, count, trace_time, d);
    else
        translateChunk<Kernel, false>(acc, count, trace_time, d);
}

void
Engine::dispatchChunk(const MemAccess *acc, size_t count,
                      uint64_t &trace_time, ChunkDelta &d)
{
    // One instantiation per (kernel, traced) pair, the fast kernels one
    // per L1 structure set; the selection runs once per chunk, not per
    // access.
    obs::ScopedTimer timer(profile_, obs::ProfPhase::Translate);
    if (cfg_.referencePath) {
        translateWith<OracleKernel>(acc, count, trace_time, d);
        return;
    }
    switch (mmu_->tlbs().design()) {
      case tlb::TlbDesign::Colt:
        translateWith<FastKernel<true, false, 0, true>>(acc, count,
                                                        trace_time, d);
        break;
      case tlb::TlbDesign::Tps:
        if (cfg_.mmu.tlb.tpsTlbSkewed)
            translateWith<FastKernel<false, true, 2, false>>(
                acc, count, trace_time, d);
        else
            translateWith<FastKernel<false, true, 1, false>>(
                acc, count, trace_time, d);
        break;
      case tlb::TlbDesign::Baseline:
      case tlb::TlbDesign::Rmm:
        translateWith<FastKernel<false, true, 0, true>>(acc, count,
                                                        trace_time, d);
        break;
    }
}

SimStats
Engine::run()
{
    tps_assert(!workloads_.empty());
    {
        obs::ScopedTimer timer(profile_, obs::ProfPhase::Setup);
        for (auto *w : workloads_)
            w->setup(*this);
    }

    SimStats stats;
    stats.epochInterval = cfg_.epochAccesses;
    workloads::Workload &primary = *workloads_[0];
    unsigned primary_ipa = primary.info().instsPerAccess;
    uint64_t primary_accesses = 0;

    // The primary thread's first warmupAccesses() accesses are the
    // program initializing its memory; statistics reset afterwards so
    // the figures report steady-state behaviour.
    uint64_t warmup_target = primary.warmupAccesses();
    bool in_warmup = warmup_target > 0;

    // Epoch sampling: take_epoch() pushes the deltas since the last
    // boundary, where eprev holds the cumulative counters.  Reads
    // only, so sampling never perturbs the simulation.
    EpochSample eprev;
    auto take_epoch = [&]() {
        EpochSample now;
        now.accesses = primary_accesses;
        now.instructions = primary_accesses * (primary_ipa + 1);
        now.cycles = cycle_.cycles();
        now.l1TlbMisses = stats.l1TlbMisses;
        now.l2TlbHits = stats.l2TlbHits;
        now.walks = stats.tlbMisses;
        now.walkMemRefs = mmu_->stats().walkMemRefs;
        now.walkCycles = stats.walkCycles;
        now.faults = stats.faults;
        now.osCycles = as_->osWork().totalCycles();
        EpochSample e;
        forEachEpochStat([](const char *, uint64_t &delta, uint64_t cur,
                            uint64_t prev) { delta = cur - prev; },
                         e, now, eprev);
        stats.epochs.push_back(e);
        eprev = now;
        // Physical-memory telemetry rides the same boundary ordinals.
        if (memTel_)
            memTel_->sample(*as_, primary_accesses);
    };

    // Paranoid-mode support: periodic invariant sweeps and a
    // cooperative wall-clock budget, both tested on primary-chunk
    // boundaries so they cost one branch when disabled.  Frames an
    // external holder (the fragmenter) took straight from the buddy
    // allocator are snapshotted here as the accounting baseline.
    std::optional<check::InvariantChecker> checker;
    if (cfg_.checkEveryAccesses != 0) {
        check::InvariantChecker::Targets targets;
        targets.as = as_.get();
        targets.phys = &as_->phys();
        targets.tlb = &mmu_->tlbs();
        targets.exemptFrames =
            check::InvariantChecker::externallyHeldFrames(as_->phys());
        checker.emplace(targets);
    }
    uint64_t accesses_since_check = 0;
    uint64_t accesses_since_clock = 0;
    uint64_t trace_time = 0;
    std::chrono::steady_clock::time_point deadline{};
    if (cfg_.timeoutSeconds > 0.0) {
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           cfg_.timeoutSeconds));
    }

    // SMT threads interleave one access per round, a non-batchable
    // generator must be stepped one access at a time, and the oracle
    // is per-access by definition; everything else runs in chunks.
    size_t n = workloads_.size();
    bool single_step =
        cfg_.referencePath || n > 1 || !primary.batchable();
    uint64_t chunk_cap = single_step ? 1 : std::max<uint64_t>(
                                               cfg_.chunkAccesses, 1);
    std::vector<MemAccess> buf(chunk_cap);
    // SMT competitors not yet exhausted, in thread order.
    std::vector<workloads::Workload *> live(workloads_.begin() + 1,
                                            workloads_.end());

    bool running = true;
    while (running) {
        // Clamp the chunk so every boundary action -- the warmup stat
        // reset, maxAccesses stop, epoch snapshot and checker sweep --
        // lands on the exact primary access ordinal, whatever the
        // chunk size.
        uint64_t limit = chunk_cap;
        if (in_warmup) {
            limit = std::min(limit, warmup_target - primary_accesses);
        } else {
            // >= comparison in the stop test: when the cap is already
            // met (maxAccesses == 0), one access still runs before the
            // stop.
            uint64_t rem = cfg_.maxAccesses > primary_accesses
                               ? cfg_.maxAccesses - primary_accesses
                               : 1;
            limit = std::min(limit, rem);
            if (cfg_.epochAccesses != 0)
                limit = std::min(
                    limit, cfg_.epochAccesses -
                               (primary_accesses - eprev.accesses));
        }
        if (checker)
            limit = std::min(limit, cfg_.checkEveryAccesses -
                                        accesses_since_check);

        size_t got;
        {
            obs::ScopedTimer timer(profile_,
                                   obs::ProfPhase::WorkloadNext);
            got = primary.nextBatch(buf.data(),
                                    static_cast<size_t>(limit));
        }
        if (got == 0) {
            running = false;
        } else {
            ChunkDelta d;
            dispatchChunk(buf.data(), got, trace_time, d);
            primary_accesses += got;
            stats.l1TlbMisses += d.l1TlbMisses;
            stats.l2TlbHits += d.l2TlbHits;
            stats.stlbPenaltyCycles += d.stlbPenaltyCycles;
            stats.tlbMisses += d.tlbMisses;
            stats.walkCycles += d.walkCycles;
            stats.faults += d.faults;

            if (in_warmup && primary_accesses >= warmup_target) {
                in_warmup = false;
                stats.warmup.accesses = primary_accesses;
                stats.warmup.cycles = cycle_.cycles();
                stats.warmup.osCycles = as_->osWork().totalCycles();
                stats.warmup.faults = stats.faults;
                primary_accesses = 0;
                stats.l1TlbMisses = 0;
                stats.l2TlbHits = 0;
                stats.tlbMisses = 0;
                stats.stlbPenaltyCycles = 0;
                stats.walkCycles = 0;
                stats.faults = 0;
                mmu_->clearStats();
                memsys_.clearStats();
                cycle_.reset();
                // Post-Mark events are the measured phase; the trace
                // clock itself is not reset.
                if (trace_)
                    trace_->mark(obs::kMarkWarmupEnd);
                // Epoch deltas restart at the measured phase; osWork
                // is not reset, so carry its baseline.
                eprev = EpochSample{};
                eprev.osCycles = stats.warmup.osCycles;
                // Baseline telemetry sample at the seam.
                if (memTel_)
                    memTel_->sample(*as_, 0);
            } else if (!in_warmup &&
                       primary_accesses >= cfg_.maxAccesses) {
                running = false;
            }
            if (cfg_.epochAccesses != 0 && !in_warmup &&
                primary_accesses - eprev.accesses >=
                    cfg_.epochAccesses) {
                take_epoch();
            }
            if (checker) {
                accesses_since_check += got;
                if (accesses_since_check >= cfg_.checkEveryAccesses) {
                    accesses_since_check = 0;
                    checker->throwIfBad();
                }
            }
            // The wall-clock budget is inherently non-deterministic;
            // read the clock at most once per 4096 primary accesses.
            if (cfg_.timeoutSeconds > 0.0 &&
                (accesses_since_clock += got) >= 4096) {
                accesses_since_clock = 0;
                if (std::chrono::steady_clock::now() > deadline) {
                    throwSimError(ErrorKind::Timeout,
                                  "cell exceeded its %.3g s wall-clock "
                                  "budget", cfg_.timeoutSeconds);
                }
            }
        }

        // Each live competitor then takes one access, also in the round
        // that ends the run.  It ticks the trace clock and the shared
        // cycle model but never the primary's counters.
        for (auto it = live.begin(); it != live.end();) {
            MemAccess acc;
            bool more;
            {
                obs::ScopedTimer timer(profile_,
                                       obs::ProfPhase::WorkloadNext);
                more = (*it)->next(acc);
            }
            if (!more) {
                it = live.erase(it);
                continue;
            }
            ChunkDelta discard;
            dispatchChunk(&acc, 1, trace_time, discard);
            ++it;
        }
    }

    // Flush the final (possibly short) epoch.
    if (cfg_.epochAccesses != 0 && primary_accesses > eprev.accesses)
        take_epoch();

    stats.accesses = primary_accesses;
    stats.instructions = primary_accesses * (primary_ipa + 1);
    stats.cycles = cycle_.cycles();
    stats.mmu = mmu_->stats();
    stats.walker = mmu_->walker().stats();
    stats.memsys = memsys_.stats();
    stats.osWork = as_->osWork();
    stats.buddy = as_->phys().buddy().stats();
    stats.compaction = as_->compactionStats();
    stats.mmapCalls = mmapCalls_;
    stats.munmapCalls = munmapCalls_;
    if (memTel_) {
        memTel_->sampleIfNew(*as_, primary_accesses);
        stats.mem = memTel_->data();
    }

    // Primary-thread walk references: in single-thread runs this is the
    // MMU total; under SMT we approximate by scaling with the primary's
    // share of walks (per-thread attribution of shared-walker refs).
    if (n == 1) {
        stats.walkMemRefs = stats.mmu.walkMemRefs;
    } else {
        double share = ratio(stats.tlbMisses, stats.mmu.walks);
        stats.walkMemRefs = static_cast<uint64_t>(
            share * static_cast<double>(stats.mmu.walkMemRefs));
    }
    return stats;
}

} // namespace tps::sim
