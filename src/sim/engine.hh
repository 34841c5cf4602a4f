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
class StatRegistry;
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

/** Warmup (initialization-phase) accounting. */
struct WarmupStats
{
    uint64_t accesses = 0;   //!< init accesses before stats were cleared
    uint64_t cycles = 0;     //!< cycles spent in the init phase
    uint64_t osCycles = 0;   //!< OS work charged during init
    uint64_t faults = 0;
};

/** Everything a run produces (measured phase, post-warmup). */
struct SimStats
{
    WarmupStats warmup;

    // Primary-thread (thread 0) figures.
    uint64_t accesses = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;             //!< total execution cycles
    uint64_t l1TlbMisses = 0;        //!< paper: L1 DTLB misses
    uint64_t l2TlbHits = 0;
    uint64_t tlbMisses = 0;          //!< full misses (walks)
    uint64_t walkMemRefs = 0;        //!< page-walk memory references
    uint64_t walkCycles = 0;         //!< PWC: walker-active cycles
    uint64_t stlbPenaltyCycles = 0;  //!< L1-miss/L2-hit active cycles
    uint64_t faults = 0;

    // Whole-machine sub-module stats.
    MmuStats mmu;
    vm::WalkerStats walker;
    MemSysStats memsys;
    os::OsWork osWork;
    os::BuddyStats buddy;
    os::CompactionStats compaction;
    uint64_t mmapCalls = 0;
    uint64_t munmapCalls = 0;

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
     * The complete stat tree (engine.*, mmu.*, memsys.*, os.work.*)
     * plus the epoch series as JSON, built on a StatRegistry so names
     * and values match the live module registrations exactly.
     */
    obs::Json toJson() const;
};

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
     * Register every hardware/OS module's live counters plus the
     * engine-level counters into @p reg ("engine.*", "mmu.*",
     * "mmu.tlb.*", "mmu.walker.*", "memsys.*", "cycle.*", "os.*").
     * Values read through the registry after run() are bit-identical
     * to the returned SimStats fields.
     */
    void registerStats(obs::StatRegistry &reg);

    /** The statistics of the last completed run(). */
    const SimStats &lastStats() const { return stats_; }

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
    //! run() accumulates here so registered stat probes stay valid.
    SimStats stats_;
};

} // namespace tps::sim

#endif // TPS_SIM_ENGINE_HH
