/**
 * @file
 * Public facade: one object that assembles physical memory, a paging
 * policy, the TLB/walker hardware and the simulation engine for any of
 * the paper's designs -- plus the experiment runner used by the figure
 * benches and examples.
 */

#ifndef TPS_CORE_TPS_SYSTEM_HH
#define TPS_CORE_TPS_SYSTEM_HH

#include <memory>
#include <optional>
#include <string>

#include "os/fragmenter.hh"
#include "os/phys_memory.hh"
#include "os/policy_common.hh"
#include "sim/engine.hh"
#include "util/stats.hh"
#include "workloads/registry.hh"

namespace tps::obs {
class EventTrace;
class Json;
class MemTelemetry;
class ProfileRegistry;
} // namespace tps::obs

namespace tps::core {

/** The designs every figure compares. */
enum class Design
{
    Base4k,    //!< 4 KB demand paging (THP disabled)
    Thp,       //!< reservation-based THP (the paper's baseline)
    Tps,       //!< Tailored Page Sizes
    TpsEager,  //!< TPS with eager paging
    Rmm,       //!< Redundant Memory Mappings
    Colt,      //!< Coalesced TLBs
};

/** Printable name of a design. */
const char *designName(Design d);

/** Build the paging policy for @p d. */
std::unique_ptr<os::PagingPolicy>
makePolicy(Design d, double tps_threshold = 1.0);

/** Build the TLB-hierarchy geometry for @p d (Table I defaults). */
tlb::TlbHierarchyConfig designTlbConfig(Design d);

/** Printable names of the enum-valued run options. */
const char *timingName(sim::TlbTimingMode m);
const char *aliasModeName(vm::AliasMode m);
const char *encodingName(vm::SizeEncoding e);

/** Everything one experiment run needs.  How each member is recorded,
 *  identified and labelled is declared once, in forEachRunOption(). */
struct RunOptions
{
    std::string workload;          //!< registry name
    Design design = Design::Thp;
    double scale = 1.0;            //!< workload scale factor
    uint64_t physBytes = 8ull << 30;
    double tpsThreshold = 1.0;
    bool smt = false;              //!< add a competing thread
    bool virtualized = false;      //!< two-dimensional page walks
    bool fiveLevel = false;
    bool noMmuCache = false;       //!< disable paging-structure caches
    bool tpsTlbSkewed = false;     //!< skewed-associative TPS TLB
    bool fragmented = false;       //!< pre-age physical memory
    os::FragmenterConfig fragmenter;
    sim::TlbTimingMode timing = sim::TlbTimingMode::Real;
    vm::AliasMode aliasMode = vm::AliasMode::Pointer;
    vm::SizeEncoding encoding = vm::SizeEncoding::Napot;
    uint64_t maxAccesses = ~0ull;
    uint64_t epochAccesses = 0;    //!< epoch-sample interval (0 = off)
    bool paranoid = false;         //!< full invariant check after the run
    uint64_t checkEvery = 0;       //!< in-run invariant-check interval
    bool referencePath = false;    //!< per-access oracle translate kernel
    uint64_t chunkAccesses = 0;    //!< engine batch size (0 = default)
    double cellTimeoutSeconds = 0; //!< per-cell wall-clock budget (0 = none)
    //! Record physical-memory telemetry (obs/mem_telemetry.hh) into
    //! SimStats::mem, which adds a "mem" section to the stat tree.
    bool memTelemetry = false;
    //! Override the workload's nominal memory footprint in bytes
    //! (gups table, graph500 edge arrays, dbx1000 buffer pool);
    //! 0 = workload default.  When set, runExperiment() also grows the
    //! physical capacity to fit (physBytes acts as a floor), letting a
    //! terabyte-footprint cell run on a default command line.
    uint64_t footprintBytes = 0;
    //! Any-size TPS L1 TLB entries.
    unsigned tpsTlbEntries = tlb::TlbHierarchyConfig{}.tpsTlbEntries;
    //! Use the dense simulator state (fully materialized buddy free
    //! lists, resident page-table nodes) instead of the sparse default
    //! -- the oracle side of the sparse/dense golden tests.
    bool denseState = false;
};

/** When a run option is written to a manifest cell's "options". */
enum class OptionEmit
{
    Always,
    WhenSet,  //!< off its default only: older manifests stay the same
    Never,    //!< host-only: how a cell is computed, never what
};

/** Canonical options are reset to their defaults in cell identity:
 *  robustness-only knobs, which cannot change a cell's statistics. */
enum class OptionIdentity { Keyed, Canonical };

/** Where a run option shows in cellLabel(). */
enum class OptionLabel
{
    None,
    Name,  //!< always, '/'-joined: "workload/design"
    Path,  //!< "/<value>" after the name, when off its default
    Tag,   //!< "+<tag>[<value>]" when off its default
};

/** One row of the run-option table.  A Tag option that is not a flag
 *  appends its value ("thr" + "0.75"); an empty tag leaves the value. */
template <typename T>
struct OptionRow
{
    const char *key;  //!< manifest "options" key
    T RunOptions::*member;
    OptionLabel label = OptionLabel::None;
    const char *tag = "";
    OptionEmit emit = OptionEmit::Always;
    OptionIdentity identity = OptionIdentity::Keyed;
};

/**
 * The run-option table: @p v gets one OptionRow per RunOptions
 * member, in manifest key order.  obs::runOptionsJson(), cellLabel()
 * and obs::cellIdentityFromJson() visit it, so a new option is one
 * member plus one row.  A Canonical row must be emitted Always.
 */
template <typename Visit>
void
forEachRunOption(Visit &&v)
{
    using O = RunOptions;
    using enum OptionLabel;
    using enum OptionEmit;
    constexpr OptionIdentity kCanonical = OptionIdentity::Canonical;
    v(OptionRow{"workload", &O::workload, Name});
    v(OptionRow{"design", &O::design, Name});
    v(OptionRow{"scale", &O::scale});
    v(OptionRow{"physBytes", &O::physBytes});
    v(OptionRow{"tpsThreshold", &O::tpsThreshold, Tag, "thr"});
    v(OptionRow{"smt", &O::smt, Tag, "smt"});
    v(OptionRow{"virtualized", &O::virtualized, Tag, "virt"});
    v(OptionRow{"fiveLevel", &O::fiveLevel, Tag, "5level"});
    v(OptionRow{"noMmuCache", &O::noMmuCache, Tag, "no-pwc"});
    v(OptionRow{"tpsTlbSkewed", &O::tpsTlbSkewed, Tag, "skewed"});
    v(OptionRow{"fragmented", &O::fragmented, Tag, "frag"});
    v(OptionRow{"fragmenter", &O::fragmenter});
    v(OptionRow{"timing", &O::timing, Path});
    v(OptionRow{"aliasMode", &O::aliasMode, Tag});
    v(OptionRow{"encoding", &O::encoding, Tag});
    v(OptionRow{"maxAccesses", &O::maxAccesses});
    v(OptionRow{"epochAccesses", &O::epochAccesses});
    v(OptionRow{"paranoid", &O::paranoid, None, "", Always, kCanonical});
    v(OptionRow{"checkEvery", &O::checkEvery, None, "", Always, kCanonical});
    v(OptionRow{"cellTimeoutSeconds", &O::cellTimeoutSeconds, None,
                "", Always, kCanonical});
    v(OptionRow{"memTelemetry", &O::memTelemetry, None, "", WhenSet});
    v(OptionRow{"footprintBytes", &O::footprintBytes, None, "", WhenSet});
    v(OptionRow{"tpsTlbEntries", &O::tpsTlbEntries, Tag, "tlb", WhenSet});
    v(OptionRow{"referencePath", &O::referencePath, None, "", Never});
    v(OptionRow{"chunkAccesses", &O::chunkAccesses, None, "", Never});
    v(OptionRow{"denseState", &O::denseState, None, "", Never});
}

/** How one sweep cell ended (recorded in run manifests). */
enum class CellStatus
{
    Ok,       //!< ran to completion
    Failed,   //!< aborted with an error; stats are zeroed
    Timeout,  //!< exceeded its wall-clock budget; stats are zeroed
    Resumed,  //!< restored from a prior manifest, not re-run
};

/** Stable display name ("ok", "failed", "timeout", "resumed"). */
const char *cellStatusName(CellStatus status);

/**
 * The workload seed offset for one cell: cellSeed() of (workload,
 * scale, footprintBytes), reproducible regardless of run order or
 * thread placement.  The design and every machine-side option stay
 * out of it, so cells that differ only there replay one access stream
 * (and, for graph500, share one memoized graph).  runExperiment()
 * seeds an SMT competitor at this seed + 1000.
 */
uint64_t runSeed(const RunOptions &opts);

/**
 * The one cell key every artifact names and joins a cell by, computed
 * from a run-manifest cell's "options" object: "workload/design", then
 * the Path and Tag parts of the forEachRunOption() rows that are off
 * their defaults, for example "gups/thp/perfect-l1" or
 * "gcc/tps+skewed+tlb64".  Workload and design names contain neither
 * '/' nor '+', so the label splits back into its parts.  Keys an older
 * manifest lacks count as defaults, but a missing or non-string name
 * throws SimError{InvalidArgument}.  Heartbeats, event-trace cells,
 * shard grids, merge holes and reports all use this label, so
 * within one sweep two cells share a label exactly when they share an
 * identity.
 */
std::string cellLabel(const obs::Json &options);

/** cellLabel() of the live options, via obs::runOptionsJson(). */
std::string cellLabel(const RunOptions &opts);

/** End-of-run address-space state of one cell (RunHooks::census). */
struct Census
{
    Histogram pageSizes;       //!< log2(size) -> mapped page count
    uint64_t mappedBytes = 0;  //!< committed bytes incl. bloat
    uint64_t touchedPages = 0; //!< demand-touched base pages
    uint64_t chunks2m = 0;     //!< distinct 2 MB chunks with a mapping
};

/**
 * Optional per-run observability attachments for runExperiment():
 * an event trace (obs/event_trace.hh), a simulator self-profile
 * (obs/profile.hh) and a physical-memory telemetry probe
 * (obs/mem_telemetry.hh), each recorded by the cell's engine when
 * non-null.  When RunOptions::memTelemetry is set and no external
 * probe is supplied, runExperiment() attaches a local one -- either
 * way the recorded data lands in SimStats::mem.  A non-null census
 * is filled from the final address space when the run succeeds.
 */
struct RunHooks
{
    obs::EventTrace *trace = nullptr;
    obs::ProfileRegistry *profile = nullptr;
    obs::MemTelemetry *memTelemetry = nullptr;
    Census *census = nullptr;
};

/**
 * The exact EngineConfig runExperiment() assembles for @p opts,
 * including the workload-specific instruction mix -- exposed so run
 * manifests can record the hardware configuration a cell used.
 */
sim::EngineConfig makeEngineConfig(const RunOptions &opts);

/**
 * The physical capacity runExperiment() actually provisions for
 * @p opts: physBytes, grown when a footprint override needs more room
 * (the footprint itself plus headroom for page tables, reservations
 * and fragmentation).
 */
uint64_t effectivePhysBytes(const RunOptions &opts);

/**
 * Run one experiment configuration end to end.  Deterministic: the same
 * options always produce the same statistics, whether cells execute
 * serially or on an ExperimentRunner pool (seeds come from runSeed(),
 * never from global state).
 */
sim::SimStats runExperiment(const RunOptions &opts);

/** runExperiment() with observability hooks attached to the engine. */
sim::SimStats runExperiment(const RunOptions &opts,
                            const RunHooks &hooks);

/**
 * An assembled system for direct API use (the examples): mmap memory,
 * touch it, inspect the page table and TLBs.
 */
class TpsSystem
{
  public:
    /** Assembly knobs for direct use. */
    struct Config
    {
        Design design = Design::Tps;
        uint64_t physBytes = 1ull << 30;
        double tpsThreshold = 1.0;
        vm::AliasMode aliasMode = vm::AliasMode::Pointer;
        vm::SizeEncoding encoding = vm::SizeEncoding::Napot;
        bool denseState = false;  //!< dense simulator-state oracle
    };

    explicit TpsSystem(const Config &cfg);

    /** Map @p bytes of anonymous memory. */
    vm::Vaddr mmap(uint64_t bytes);

    /** Unmap a region returned by mmap. */
    void munmap(vm::Vaddr start);

    /**
     * Perform one memory access (translating through the TLBs and
     * walker, faulting and promoting as the policy dictates).
     * @return the physical address.
     */
    vm::Paddr access(vm::Vaddr va, bool write = false);

    /** Touch every base page of [start, start+bytes). */
    void touchRange(vm::Vaddr start, uint64_t bytes, bool write = true);

    os::PhysMemory &phys() { return *phys_; }
    os::AddressSpace &addressSpace() { return engine_->addressSpace(); }
    sim::Mmu &mmu() { return engine_->mmu(); }
    sim::Engine &engine() { return *engine_; }

  private:
    Config cfg_;
    std::unique_ptr<os::PhysMemory> phys_;
    std::unique_ptr<sim::Engine> engine_;
};

} // namespace tps::core

#endif // TPS_CORE_TPS_SYSTEM_HH
