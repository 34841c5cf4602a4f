/**
 * @file
 * Simulation engine: drives one or more workloads (round-robin, for the
 * SMT studies) through the OS + MMU + cache + timing models and collects
 * all statistics every figure consumes.
 */

#ifndef TPS_SIM_ENGINE_HH
#define TPS_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/json.hh"
#include "obs/mem_telemetry.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/compaction_stats.hh"
#include "os/phys_memory.hh"
#include "sim/access.hh"
#include "sim/cycle_model.hh"
#include "sim/memsys.hh"
#include "sim/mmu.hh"
#include "workloads/workload.hh"

namespace tps::obs {
class EventTrace;
class ProfileRegistry;
} // namespace tps::obs

namespace tps::sim {

/** How TLB latency enters the timing model. */
enum class TlbTimingMode
{
    Real,       //!< simulated penalties as they occur
    PerfectL1,  //!< translation is always free (perfect L1 TLB)
    PerfectL2,  //!< L1 misses always hit the L2 TLB (no walks)
};

/** Engine configuration. */
struct EngineConfig
{
    MmuConfig mmu;
    MemSysConfig memsys;
    CycleModelConfig cycle;
    os::AddressSpace::Config addressSpace;
    TlbTimingMode timing = TlbTimingMode::Real;
    uint64_t maxAccesses = ~0ull;   //!< cap on primary-thread accesses
    /**
     * Snapshot delta counters into SimStats::epochs every this many
     * measured primary-thread accesses (0 = no epoch sampling).  The
     * sampling is passive: it never perturbs the simulated counters.
     */
    uint64_t epochAccesses = 0;
    /**
     * Run the invariant checker (check/invariant_checker.hh) every this
     * many primary-thread accesses (0 = never).  A violation aborts the
     * cell with SimError{CorruptState}.  Purely read-only: checking
     * never perturbs simulated state or statistics.
     */
    uint64_t checkEveryAccesses = 0;
    /**
     * Cooperative wall-clock budget for run() in seconds (0 = none).
     * Checked every few thousand accesses; exceeding it aborts the cell
     * with SimError{Timeout} so a sweep can degrade gracefully instead
     * of hanging.
     */
    double timeoutSeconds = 0.0;
    /**
     * Run the oracle: chunks of one access, each translated through the
     * virtually dispatched Mmu::access / TlbHierarchy::lookup instead of
     * the devirtualized Mmu::accessFast.  Everything else -- boundary
     * bookkeeping, SMT rounds, finalization -- is the one engine loop,
     * so the differential suite (tests/differential_test.cc) checks the
     * devirtualized kernel and the chunk clamping against a per-access
     * run.  Deliberately excluded from manifest serialization so
     * artifacts from either kernel compare byte-for-byte.
     */
    bool referencePath = false;
    /**
     * Batch size: accesses translated per primary-workload batch.
     * Chunks are clamped so warmup, epoch, checker and maxAccesses
     * boundaries land on their exact access ordinal; the value
     * therefore affects performance only, never results.  SMT runs,
     * non-batchable workloads and referencePath use chunks of one
     * access regardless.  Also excluded from manifest serialization.
     */
    uint64_t chunkAccesses = 4096;
};

/**
 * Delta counters over one epoch of epochAccesses measured accesses (the
 * final epoch may be shorter).  This is the time-series view that makes
 * warmup-vs-steady-state and fragmentation onset visible.
 */
struct EpochSample
{
    uint64_t accesses = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t l1TlbMisses = 0;
    uint64_t l2TlbHits = 0;
    uint64_t walks = 0;          //!< full misses (page walks)
    uint64_t walkMemRefs = 0;
    uint64_t walkCycles = 0;
    uint64_t faults = 0;
    uint64_t osCycles = 0;

    /** L1 DTLB misses per thousand instructions within the epoch. */
    double mpki() const;

    /** Walker-active fraction of the epoch's cycles. */
    double walkCycleFraction() const;
};

/**
 * The epoch-sample counters in record order: @p v gets each record key
 * and that field of every one of @p e.  obs::epochsJson(), the epoch
 * restore in obs::simStatsFromJson() and the engine's epoch deltas
 * visit it.
 */
template <typename Visit, typename... E>
void
forEachEpochStat(Visit &&v, E &...e)
{
    v("accesses", e.accesses...);
    v("instructions", e.instructions...);
    v("cycles", e.cycles...);
    v("l1TlbMisses", e.l1TlbMisses...);
    v("l2TlbHits", e.l2TlbHits...);
    v("walks", e.walks...);
    v("walkMemRefs", e.walkMemRefs...);
    v("walkCycles", e.walkCycles...);
    v("faults", e.faults...);
    v("osCycles", e.osCycles...);
}

/** Warmup (initialization-phase) accounting. */
struct WarmupStats
{
    uint64_t accesses = 0;   //!< init accesses before stats were cleared
    uint64_t cycles = 0;     //!< cycles spent in the init phase
    uint64_t osCycles = 0;   //!< OS work charged during init
    uint64_t faults = 0;     //!< init-phase faults
};

/** Everything a run produces (measured phase, post-warmup). */
struct SimStats
{
    WarmupStats warmup;

    // Primary-thread (thread 0) figures.
    uint64_t accesses = 0;           //!< measured accesses
    uint64_t instructions = 0;       //!< measured instructions
    uint64_t cycles = 0;             //!< total execution cycles
    uint64_t l1TlbMisses = 0;        //!< paper: L1 DTLB misses
    uint64_t l2TlbHits = 0;          //!< L1 misses that hit the L2 TLB
    uint64_t tlbMisses = 0;          //!< full misses (walks)
    uint64_t walkMemRefs = 0;        //!< page-walk memory references
    uint64_t walkCycles = 0;         //!< PWC: walker-active cycles
    uint64_t stlbPenaltyCycles = 0;  //!< L1-miss/L2-hit active cycles
    uint64_t faults = 0;             //!< demand faults serviced

    // Whole-machine sub-module stats.
    MmuStats mmu;
    vm::WalkerStats walker;
    MemSysStats memsys;
    os::OsWork osWork;
    os::BuddyStats buddy;
    os::CompactionStats compaction;
    uint64_t mmapCalls = 0;          //!< mmap syscalls
    uint64_t munmapCalls = 0;        //!< munmap syscalls

    // Epoch time series (empty unless EngineConfig::epochAccesses > 0).
    uint64_t epochInterval = 0;
    std::vector<EpochSample> epochs;

    //! Physical-memory telemetry (empty unless a MemTelemetry probe
    //! was attached; see Engine::setMemTelemetry).
    obs::MemTelemetryData mem;

    /** L1 DTLB misses per thousand instructions. */
    double mpki() const;

    /** Fraction of execution time the page walker was active. */
    double walkCycleFraction() const;

    /** OS cycles charged during the measured phase only. */
    uint64_t measuredOsCycles() const;

    /** Fraction of measured time spent in OS (system) work. */
    double systemTimeFraction() const;

    /**
     * Fraction of the *whole run* (init + measured) spent in OS work,
     * the view a real whole-program run reports.
     */
    double fullRunSystemTimeFraction() const;

    /**
     * The stat tree: every forEachSimStat() row nested by its dotted
     * path, then "epochs" (obs::epochsJson()) and "mem" when recorded.
     * Defined next to obs::simStatsFromJson(), the other visit.
     */
    obs::Json toJson() const;
};

/** How obs::simStatsFromJson() restores one stat-table row. */
enum class StatRestore
{
    Required,  //!< absent from the tree: SimError
    Or0,       //!< absent: 0, so manifests older than the counter resume
    Derived,   //!< computed from other rows: written, never read back
};

/**
 * The stat table: @p v gets (dotted manifest path, value, restore rule)
 * for every SimStats counter and derived value, sorted by path.
 * Counters arrive as fields of @p s (const when @p S is), derived
 * values as prvalues.  SimStats::toJson() and obs::simStatsFromJson()
 * visit it, so a new counter is one field plus one row.
 */
template <typename S, typename Visit>
void
forEachSimStat(S &s, Visit &&v)
{
    using enum StatRestore;
    v("engine.accesses", s.accesses, Required);
    v("engine.cycles", s.cycles, Required);
    v("engine.faults", s.faults, Required);
    v("engine.instructions", s.instructions, Required);
    v("engine.l1TlbMisses", s.l1TlbMisses, Required);
    v("engine.l2TlbHits", s.l2TlbHits, Required);
    v("engine.mmapCalls", s.mmapCalls, Required);
    v("engine.mpki", s.mpki(), Derived);
    v("engine.munmapCalls", s.munmapCalls, Required);
    v("engine.stlbPenaltyCycles", s.stlbPenaltyCycles, Required);
    v("engine.systemTimeFraction", s.systemTimeFraction(), Derived);
    v("engine.walkCycleFraction", s.walkCycleFraction(), Derived);
    v("engine.walkCycles", s.walkCycles, Required);
    v("engine.walkMemRefs", s.walkMemRefs, Required);
    v("engine.walks", s.tlbMisses, Required);
    v("engine.warmup.accesses", s.warmup.accesses, Required);
    v("engine.warmup.cycles", s.warmup.cycles, Required);
    v("engine.warmup.faults", s.warmup.faults, Required);
    v("engine.warmup.osCycles", s.warmup.osCycles, Required);
    v("memsys.accesses", s.memsys.accesses, Required);
    v("memsys.dramAccesses", s.memsys.dramAccesses, Required);
    v("memsys.l1Hits", s.memsys.l1Hits, Required);
    v("memsys.llcHits", s.memsys.llcHits, Required);
    v("mmu.accesses", s.mmu.accesses, Required);
    v("mmu.ad.pteWrites", s.mmu.adPteWrites, Required);
    v("mmu.ad.vectorStores", s.mmu.adVectorStores, Required);
    v("mmu.faults", s.mmu.faults, Required);
    v("mmu.l1.hits", s.mmu.l1Hits, Required);
    v("mmu.l1.misses", s.mmu.l1Misses, Required);
    v("mmu.l2.hits", s.mmu.l2Hits, Required);
    v("mmu.stlb.penaltyCycles", s.mmu.stlbPenaltyCycles, Required);
    v("mmu.walk.cycles", s.mmu.walkCycles, Required);
    v("mmu.walk.faultMemRefs", s.mmu.faultWalkMemRefs, Required);
    v("mmu.walk.memRefs", s.mmu.walkMemRefs, Required);
    v("mmu.walk.nestedRefs", s.mmu.nestedWalkRefs, Required);
    v("mmu.walker.accesses", s.walker.accesses, Required);
    v("mmu.walker.aliasExtra", s.walker.aliasExtra, Required);
    v("mmu.walker.faults", s.walker.faults, Required);
    v("mmu.walker.nestedAccesses", s.walker.nestedAccesses, Required);
    v("mmu.walker.nestedTlb.hits", s.walker.nestedTlbHits, Required);
    v("mmu.walker.nestedTlb.misses", s.walker.nestedTlbMisses, Required);
    v("mmu.walker.walks", s.walker.walks, Required);
    v("mmu.walks", s.mmu.walks, Required);
    v("mmu.writeProtFaults", s.mmu.writeProtFaults, Required);
    v("os.buddy.allocs", s.buddy.allocs, Or0);
    v("os.buddy.failedAllocs", s.buddy.failedAllocs, Or0);
    v("os.buddy.frees", s.buddy.frees, Or0);
    v("os.buddy.merges", s.buddy.merges, Or0);
    v("os.buddy.splits", s.buddy.splits, Or0);
    v("os.compaction.mergedPages", s.compaction.mergedPages, Or0);
    v("os.compaction.migratedBlocks", s.compaction.migratedBlocks, Or0);
    v("os.compaction.migratedFrames", s.compaction.migratedFrames, Or0);
    v("os.work.allocCycles", s.osWork.allocCycles, Required);
    v("os.work.faultCycles", s.osWork.faultCycles, Required);
    v("os.work.faults", s.osWork.faults, Required);
    v("os.work.promotions", s.osWork.promotions, Required);
    v("os.work.pteCycles", s.osWork.pteCycles, Required);
    v("os.work.reservationsCreated", s.osWork.reservationsCreated,
      Required);
    v("os.work.reservationsMissed", s.osWork.reservationsMissed,
      Required);
    v("os.work.shootdownCycles", s.osWork.shootdownCycles, Required);
    v("os.work.totalCycles", s.osWork.totalCycles(), Derived);
    v("os.work.zeroCycles", s.osWork.zeroCycles, Required);
}

/** The engine. */
class Engine : public AllocApi
{
  public:
    /**
     * @param pm      Physical memory (possibly pre-fragmented).
     * @param policy  Paging policy for the (shared) address space.
     * @param cfg     All hardware/timing knobs.
     */
    Engine(os::PhysMemory &pm, std::unique_ptr<os::PagingPolicy> policy,
           EngineConfig cfg = EngineConfig{});

    /**
     * Attach a workload.  The first is the primary (measured) thread;
     * additional ones model SMT contention and share every hardware
     * structure.  Threads share one address space with disjoint VMAs
     * (an ASID-free model of competitive TLB sharing).
     */
    void addWorkload(workloads::Workload &w);

    /**
     * Run to primary-thread completion; returns the statistics.  Each
     * round translates one primary chunk, takes the primary's boundary
     * actions (warmup reset, maxAccesses stop, epoch snapshot, checker
     * sweep), then one access from each competitor not yet exhausted.
     */
    SimStats run();

    /**
     * Attach an event trace (nullptr = off) to the engine, its MMU
     * (TLBs + walker) and address space (OS policies).  The engine
     * drives the trace clock -- one tick per simulated access, never
     * reset -- and emits a Mark{kindWarmupEnd} at the warmup boundary,
     * right after clearing the hardware statistics, so post-Mark
     * TlbMiss events reconcile exactly with the measured counters.
     */
    void setEventTrace(obs::EventTrace *trace);

    /** Attach simulator self-profiling (nullptr = off). */
    void setProfile(obs::ProfileRegistry *profile);

    /**
     * Attach a physical-memory telemetry probe (nullptr = off), also
     * forwarded to the address space so OS policies can report
     * reservation lifecycle events.  The engine samples it at every
     * epoch boundary (the exact ordinals the epoch series uses), at
     * the warmup/measured seam and at end of run; the recorded data
     * is copied into SimStats::mem.  Purely passive: simulated
     * counters are never perturbed.  The probe must outlive the
     * engine: the address-space destructor unmaps surviving VMAs,
     * which still fires the reservation-release hooks.
     */
    void setMemTelemetry(obs::MemTelemetry *tel);

    os::AddressSpace &addressSpace() { return *as_; }
    Mmu &mmu() { return *mmu_; }
    MemSys &memsys() { return memsys_; }

    // AllocApi (workload syscalls).
    vm::Vaddr mmap(uint64_t bytes) override;
    void munmap(vm::Vaddr start) override;

  private:
    /** Primary-thread stat deltas accumulated over one chunk. */
    struct ChunkDelta
    {
        uint64_t l1TlbMisses = 0;
        uint64_t l2TlbHits = 0;
        uint64_t stlbPenaltyCycles = 0;
        uint64_t tlbMisses = 0;
        uint64_t walkCycles = 0;
        uint64_t faults = 0;
    };

    /**
     * Translate @p count accesses through @p Kernel's MMU entry point
     * (the devirtualized accessFast or the virtual oracle), feeding
     * memsys and the cycle model; @p Traced hoists the trace check out
     * of the loop.  Defined in engine.cc; all instantiations live there.
     */
    template <class Kernel, bool Traced>
    void translateChunk(const MemAccess *acc, size_t count,
                        uint64_t &trace_time, ChunkDelta &delta);

    /** translateChunk<Kernel, Traced> for the attached trace. */
    template <class Kernel>
    void translateWith(const MemAccess *acc, size_t count,
                       uint64_t &trace_time, ChunkDelta &delta);

    /**
     * Select the kernel for the active design (or the oracle) and
     * translate one chunk, timed as the profile's Translate phase.
     */
    void dispatchChunk(const MemAccess *acc, size_t count,
                       uint64_t &trace_time, ChunkDelta &delta);

    EngineConfig cfg_;
    MemSys memsys_;
    std::unique_ptr<os::AddressSpace> as_;
    std::unique_ptr<Mmu> mmu_;
    CycleModel cycle_;
    std::vector<workloads::Workload *> workloads_;
    uint64_t mmapCalls_ = 0;
    uint64_t munmapCalls_ = 0;
    obs::EventTrace *trace_ = nullptr;
    obs::ProfileRegistry *profile_ = nullptr;
    obs::MemTelemetry *memTel_ = nullptr;
};

} // namespace tps::sim

#endif // TPS_SIM_ENGINE_HH
