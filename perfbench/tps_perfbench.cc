/**
 * @file
 * Host-time benchmark program: one pass over a named grid of simulator
 * cells, printed as one JSON record of what each cell cost the host.
 *
 *   tps_perfbench --workload=<steady|populate|fragmented|graph_sweep>
 *                 [--seed=<n>] [--trace [--spans=<path>]]
 *   tps_perfbench --workload=<name> [--seed=<n>]
 *                 --obs=<bare|event_trace|mem_telemetry>
 *   tps_perfbench --identity
 *
 * Each cell is assembled from the public API exactly as
 * core::runExperiment() assembles it, except that the engine drives a
 * forwarding decorator (TimedWorkload) instead of the bare generator.
 * The decorator times the workload, OS-syscall and translate layers
 * from outside, at the chunk boundaries of Engine::runFast.  The engine
 * clamps chunks to the warmup seam, so each chunk is wholly init phase
 * or wholly measured phase.  Untraced, a cell reads the clock a fixed
 * number of times (at setup's end, the seam, run()'s end and so on),
 * never per chunk or per access.
 *
 * --trace also reads it around every chunk and records a span tree per
 * cell, kept in memory:
 *   cell -> os.phys_init, os.fragment, workloads.construct,
 *           sim.engine_init, workloads.setup (-> os.mmap),
 *           per chunk workloads.next_batch (-> os.mmap, os.munmap) and
 *           sim.translate (tagged warmup or measured; smt for the
 *           reference loop), obs.stats_json, check.invariants
 * and reports self time per span name (duration minus the time its
 * children cover).
 *
 * --obs runs only the workload's overhead cell, bare or with an
 * obs::EventTrace or obs::MemTelemetry attached, to price observability.
 * Each such run is its own process, so graph500's CSR memo starts empty
 * for it as it does for a pass.
 *
 * --seed=<n> is added to each cell's core::runSeed() and to the
 * fragmenter seed; 0 reproduces core::runExperiment(), which --identity
 * checks for every cell of every workload.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/mem_telemetry.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

using namespace tps;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------- the grids

/** One benchmark workload: a fixed grid of cells. */
struct Grid
{
    std::vector<core::RunOptions> cells;
    size_t overheadCell = 0;  //!< the cell priced with obs attached
};

const char *const kWorkloads[] = {"steady", "populate", "fragmented",
                                  "graph_sweep"};

core::RunOptions
makeCell(const char *workload, core::Design design, double scale,
         uint64_t footprint_bytes = 0)
{
    core::RunOptions o;
    o.workload = workload;
    o.design = design;
    o.scale = scale;
    o.footprintBytes = footprint_bytes;
    return o;
}

/**
 * The four grids.  Each is sized so one pass takes about a host second
 * (so a run has many passes to take each cell's best of) and its host
 * time lands in the layer the workload is meant to load:
 * steady in measured-phase translation, populate in init-phase faults,
 * fragmented in the buddy fallback paths, graph_sweep in setup.
 */
Grid
makeGrid(const std::string &name)
{
    using core::Design;
    Grid g;
    if (name == "steady") {
        // Small footprints and a long measured phase: translation, not
        // faulting, is the host's work.
        constexpr double kScale = 0.25;
        constexpr uint64_t kFootprint = 128ull << 20;
        for (const char *wl : {"gups", "mcf", "xsbench", "dbx1000"}) {
            for (Design d :
                 {Design::Thp, Design::Tps, Design::Colt, Design::Rmm})
                g.cells.push_back(makeCell(wl, d, kScale, kFootprint));
        }
        for (Design d : {Design::Thp, Design::Tps}) {
            core::RunOptions o = makeCell("mcf", d, kScale, kFootprint);
            o.smt = true;
            g.cells.push_back(o);
        }
        g.overheadCell = 4;  // mcf/thp
    } else if (name == "populate") {
        // A 1 GB footprint faulted in page by page, then a short
        // measured phase.
        constexpr double kScale = 0.02;
        constexpr uint64_t kFootprint = 1ull << 30;
        for (const char *wl : {"gups", "xsbench", "dbx1000"}) {
            for (Design d : {Design::Thp, Design::Tps, Design::Rmm})
                g.cells.push_back(makeCell(wl, d, kScale, kFootprint));
        }
        g.overheadCell = 3;  // xsbench/thp
    } else if (name == "fragmented") {
        // Memory pre-aged with fig16's fragmenter setting, at half
        // fig16's default scale.
        constexpr double kScale = 0.125;
        for (const char *wl : {"gups", "mcf", "xsbench", "dbx1000", "gcc"}) {
            for (Design d : {Design::Thp, Design::Tps}) {
                core::RunOptions o = makeCell(wl, d, kScale);
                o.fragmented = true;
                g.cells.push_back(o);
            }
        }
        g.overheadCell = 8;  // gcc/thp
    } else if (name == "graph_sweep") {
        // Setup-bound: the R-MAT CSR build inside Workload::setup, one
        // graph per design because core::runSeed hashes the design.
        // The footprint pins a 2^16-vertex graph (144 simulated bytes
        // per vertex at edge factor 8); the scale sets only the access
        // count, long enough to time the translate phases.
        constexpr double kScale = 0.125;
        constexpr uint64_t kFootprint = 144ull << 16;
        for (Design d :
             {Design::Thp, Design::Tps, Design::Rmm, Design::Colt})
            g.cells.push_back(makeCell("graph500", d, kScale, kFootprint));
        g.overheadCell = 0;
    } else {
        throwSimError(ErrorKind::InvalidArgument, "unknown workload '%s'",
                      name.c_str());
    }
    return g;
}

/** "workload/design", plus "+smt" / "+frag" so every cell is unique. */
std::string
cellName(const core::RunOptions &o)
{
    std::string name = core::cellLabel(o);
    if (o.smt)
        name += "+smt";
    if (o.fragmented)
        name += "+frag";
    return name;
}

// ------------------------------------------------------------------ spans

enum class SpanKind : uint8_t
{
    Cell,
    PhysInit,
    Fragment,
    Construct,
    EngineInit,
    Setup,
    NextBatch,
    Mmap,
    Munmap,
    TranslateWarmup,
    TranslateMeasured,
    TranslateSmt,
    StatsJson,
    Check,
};
constexpr size_t kSpanKinds = 14;

/** Layer-qualified name of each span kind; sim.translate is tagged. */
const char *const kSpanName[kSpanKinds] = {
    "cell",
    "os.phys_init",
    "os.fragment",
    "workloads.construct",
    "sim.engine_init",
    "workloads.setup",
    "workloads.next_batch",
    "os.mmap",
    "os.munmap",
    "sim.translate",
    "sim.translate",
    "sim.translate",
    "obs.stats_json",
    "check.invariants",
};
const char *const kSpanTag[kSpanKinds] = {
    "", "", "", "", "", "", "", "", "", "warmup", "measured", "smt", "", "",
};

/**
 * Per-chunk kinds.  A chunk averages only a few accesses (a batch ends
 * when the generator's burst buffer runs dry), so a cell has ~10^5 of
 * each; one record per kind and cell keeps their count, first start,
 * last end and summed duration instead.
 */
bool
folded(SpanKind kind)
{
    return kind == SpanKind::NextBatch ||
           kind == SpanKind::TranslateWarmup ||
           kind == SpanKind::TranslateMeasured;
}

struct Span
{
    SpanKind kind;
    int32_t parent;   //!< index into the cell's spans, -1 for the root
    uint64_t count;   //!< spans folded into this record
    Clock::time_point start;  //!< of the first
    Clock::time_point end;    //!< of the last
    double busyS;             //!< summed duration
};

/**
 * The spans of one cell, kept in memory, with self time (duration less
 * the time child spans cover) accumulated per kind as spans close.  A
 * cell runs on one thread, so spans nest strictly and the stack of open
 * spans gives each new span its parent.
 */
class SpanLog
{
  public:
    SpanLog() { std::fill(std::begin(foldedAt_), std::end(foldedAt_), -1); }

    void
    open(SpanKind kind, Clock::time_point t)
    {
        int32_t index = record(kind, t);
        stack_.push_back({index, t, 0.0});
    }

    void
    close(Clock::time_point t)
    {
        Open o = stack_.back();
        stack_.pop_back();
        finish(o.index, o.start, t, o.covered);
    }

    /** A finished span without children, child of the innermost open. */
    void
    add(SpanKind kind, Clock::time_point from, Clock::time_point to)
    {
        finish(record(kind, from), from, to, 0.0);
    }

    /** Close every open span (a cell that threw mid-span). */
    void
    closeAll(Clock::time_point t)
    {
        while (!stack_.empty())
            close(t);
    }

    const std::vector<Span> &spans() const { return spans_; }
    double selfS(size_t kind) const { return selfS_[kind]; }
    uint64_t count(size_t kind) const { return count_[kind]; }

  private:
    struct Open
    {
        int32_t index;
        Clock::time_point start;
        double covered;  //!< by children closed so far
    };

    int32_t
    record(SpanKind kind, Clock::time_point t)
    {
        int32_t parent = stack_.empty() ? -1 : stack_.back().index;
        int32_t &at = foldedAt_[static_cast<size_t>(kind)];
        if (folded(kind) && at >= 0)
            return at;
        spans_.push_back({kind, parent, 0, t, t, 0.0});
        int32_t index = static_cast<int32_t>(spans_.size() - 1);
        if (folded(kind))
            at = index;
        return index;
    }

    void
    finish(int32_t index, Clock::time_point start, Clock::time_point end,
           double covered)
    {
        double d = seconds(start, end);
        Span &s = spans_[index];
        ++s.count;
        s.end = end;
        s.busyS += d;
        size_t k = static_cast<size_t>(s.kind);
        selfS_[k] += d - covered;
        ++count_[k];
        if (!stack_.empty())
            stack_.back().covered += d;
    }

    std::vector<Span> spans_;
    std::vector<Open> stack_;
    int32_t foldedAt_[kSpanKinds];
    double selfS_[kSpanKinds] = {};
    uint64_t count_[kSpanKinds] = {};
};

// ------------------------------------------------------------ decorator

/**
 * Forwarding Workload that times its generator from outside.  Setup's
 * and chunk generation's syscalls reach the engine through this object
 * (its AllocApi side), so they are counted and, traced, timed.  All
 * behaviour is forwarded: the engine sees the same accesses, the same
 * syscalls in the same order, and the same batchable() answer, so it
 * takes the same loop and produces the same statistics.
 *
 * Untraced, it reads the clock only at phase boundaries: setup's end
 * and the first measured chunk (the warmup seam).  Traced, it also
 * reads it on entry to and exit from every nextBatch(), which splits
 * each phase into generation and translation (the time between two
 * nextBatch() calls is the engine translating the earlier chunk).
 */
class TimedWorkload final : public workloads::Workload, private sim::AllocApi
{
  public:
    /** @param log  span sink when traced, else nullptr. */
    TimedWorkload(workloads::Workload &inner, SpanLog *log,
                  const sim::Mmu &mmu)
        : inner_(inner), log_(log), mmu_(mmu)
    {}

    const workloads::WorkloadInfo &info() const override
    {
        return inner_.info();
    }

    void
    setup(sim::AllocApi &api) override
    {
        api_ = &api;
        if (log_)
            log_->open(SpanKind::Setup, Clock::now());
        inner_.setup(*this);
        setupEnd_ = Clock::now();
        if (log_)
            log_->close(setupEnd_);
        warmupTarget_ = inner_.warmupAccesses();
    }

    /** The reference (SMT) loop's entry: counted, never timed. */
    bool
    next(sim::MemAccess &out) override
    {
        if (!inner_.next(out))
            return false;
        ++emitted_;
        return true;
    }

    size_t
    nextBatch(sim::MemAccess *out, size_t max) override
    {
        bool warm = emitted_ < warmupTarget_;
        bool at_seam = !warm && !seamSeen_;
        Clock::time_point t0{};
        if (log_ || at_seam)
            t0 = Clock::now();
        if (at_seam) {
            seamSeen_ = true;
            seam_ = t0;
        }
        if (log_) {
            closeTranslate(t0);
            log_->open(SpanKind::NextBatch, t0);
            // The engine clears the MMU counters at the warmup seam;
            // this keeps the init phase's count up to its last chunk.
            if (warm)
                initFaultWalkRefs_ = mmu_.stats().faultWalkMemRefs;
        }
        size_t n = inner_.nextBatch(out, max);
        if (log_) {
            Clock::time_point t1 = Clock::now();
            log_->close(t1);
            if (n > 0) {
                open_ = true;
                openWarm_ = warm;
                lastExit_ = t1;
            }
        }
        if (warm && emitted_ + n > warmupTarget_)
            straddled_ = true;
        emitted_ += n;
        (warm ? warmupSeen_ : measuredSeen_) += n;
        return n;
    }

    bool batchable() const override { return inner_.batchable(); }

    uint64_t warmupAccesses() const override
    {
        return inner_.warmupAccesses();
    }

    /**
     * Traced: charge the time since the last chunk was handed out to
     * translate (the next nextBatch() call does this; so does the end
     * of run()).
     */
    void
    closeTranslate(Clock::time_point t)
    {
        if (!open_)
            return;
        open_ = false;
        log_->add(openWarm_ ? SpanKind::TranslateWarmup
                            : SpanKind::TranslateMeasured,
                  lastExit_, t);
    }

    Clock::time_point setupEnd() const { return setupEnd_; }
    /** The warmup seam, or @p run_end if the run never passed it. */
    Clock::time_point
    seam(Clock::time_point run_end) const
    {
        return seamSeen_ ? seam_ : run_end;
    }
    uint64_t emitted() const { return emitted_; }
    uint64_t warmupSeen() const { return warmupSeen_; }
    uint64_t measuredSeen() const { return measuredSeen_; }
    uint64_t syscalls() const { return syscalls_; }
    uint64_t initFaultWalkRefs() const { return initFaultWalkRefs_; }
    bool straddled() const { return straddled_; }

  private:
    vm::Vaddr
    mmap(uint64_t bytes) override
    {
        ++syscalls_;
        if (!log_)
            return api_->mmap(bytes);
        log_->open(SpanKind::Mmap, Clock::now());
        vm::Vaddr va = api_->mmap(bytes);
        log_->close(Clock::now());
        return va;
    }

    void
    munmap(vm::Vaddr start) override
    {
        ++syscalls_;
        if (!log_)
            return api_->munmap(start);
        log_->open(SpanKind::Munmap, Clock::now());
        api_->munmap(start);
        log_->close(Clock::now());
    }

    workloads::Workload &inner_;
    SpanLog *log_;
    const sim::Mmu &mmu_;
    sim::AllocApi *api_ = nullptr;
    uint64_t warmupTarget_ = 0;
    uint64_t emitted_ = 0;
    uint64_t warmupSeen_ = 0;
    uint64_t measuredSeen_ = 0;
    uint64_t syscalls_ = 0;
    uint64_t initFaultWalkRefs_ = 0;
    bool straddled_ = false;
    bool seamSeen_ = false;
    bool open_ = false;      //!< traced: a handed-out chunk is translating
    bool openWarm_ = false;  //!< ...and it belongs to the init phase
    Clock::time_point setupEnd_{};
    Clock::time_point seam_{};
    Clock::time_point lastExit_{};
};

// ------------------------------------------------------------------ cells

struct CellResult
{
    std::string label;
    bool ok = true;
    std::string error;  //!< why the cell failed
    bool smt = false;
    double startS = 0;     //!< from the grid's start: the cell's queue wait
    double cellS = 0;
    double setupS = 0;     //!< cell start to the end of Workload::setup
    double initS = 0;      //!< setup end to the warmup seam
    double measuredS = 0;  //!< warmup seam to the end of run()
    double smtS = 0;       //!< setup end to the end of run(), SMT cells
    double statsJsonS = 0;
    double checkS = 0;
    uint64_t warmupAccesses = 0;
    uint64_t measuredAccesses = 0;
    uint64_t smtAccesses = 0;  //!< both threads
    uint64_t syscalls = 0;
    uint64_t violations = 0;
    uint64_t faultWalkRefs = 0;  //!< traced: init phase (nextBatch) + measured
    std::string json;            //!< SimStats::toJson().dump()
    sim::SimStats stats;
    std::optional<SpanLog> log;  //!< traced only
};

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Run one cell the way core::runExperiment() does, through the timing
 * decorator, then check it.  Never throws: a SimError or a failed check
 * marks the cell failed and names what went wrong.
 */
CellResult
runCell(const core::RunOptions &opts, uint64_t seed, bool traced,
        Clock::time_point origin, const core::RunHooks &hooks = {})
{
    CellResult r;
    r.label = cellName(opts);
    r.smt = opts.smt;
    Clock::time_point start = Clock::now();
    r.startS = seconds(origin, start);
    SpanLog *slog = traced ? &r.log.emplace() : nullptr;
    // A traced-only clock read (untraced passes skip it).
    auto stamp = [slog] {
        return slog ? Clock::now() : Clock::time_point{};
    };
    if (slog)
        slog->open(SpanKind::Cell, start);

    try {
        os::PhysMemory pm(core::effectivePhysBytes(opts), opts.denseState);
        Clock::time_point t_phys = stamp();
        std::optional<os::Fragmenter> fragmenter;
        if (opts.fragmented) {
            os::FragmenterConfig fcfg = opts.fragmenter;
            fcfg.seed += seed;
            fragmenter.emplace(pm, fcfg);
            fragmenter->run();
        }
        // Recorded on pristine cells too, where the step is skipped.
        Clock::time_point t_frag = stamp();
        sim::EngineConfig ecfg = core::makeEngineConfig(opts);
        uint64_t wseed = core::runSeed(opts) + seed;
        auto primary = workloads::makeWorkload(opts.workload, opts.scale,
                                               wseed, opts.footprintBytes);
        std::unique_ptr<workloads::Workload> competitor;
        if (opts.smt) {
            competitor = workloads::makeWorkload(
                opts.workload, opts.scale, wseed + 1000,
                opts.footprintBytes);
        }
        Clock::time_point t_construct = stamp();
        sim::Engine engine(pm, core::makePolicy(opts.design,
                                                opts.tpsThreshold),
                           ecfg);
        Clock::time_point t_engine = stamp();
        if (slog) {
            slog->add(SpanKind::PhysInit, start, t_phys);
            slog->add(SpanKind::Fragment, t_phys, t_frag);
            slog->add(SpanKind::Construct, t_frag, t_construct);
            slog->add(SpanKind::EngineInit, t_construct, t_engine);
        }
        if (hooks.trace)
            engine.setEventTrace(hooks.trace);
        if (hooks.memTelemetry)
            engine.setMemTelemetry(hooks.memTelemetry);
        TimedWorkload timed(*primary, slog, engine.mmu());
        engine.addWorkload(timed);
        std::optional<TimedWorkload> timed_competitor;
        if (competitor) {
            timed_competitor.emplace(*competitor, slog, engine.mmu());
            engine.addWorkload(*timed_competitor);
        }

        sim::SimStats stats = engine.run();
        Clock::time_point run_end = Clock::now();
        Clock::time_point setup_end = timed.setupEnd();
        if (timed_competitor)
            setup_end = std::max(setup_end, timed_competitor->setupEnd());
        r.setupS = seconds(start, setup_end);
        r.syscalls = timed.syscalls();
        if (timed_competitor) {
            r.smtS = seconds(setup_end, run_end);
            r.smtAccesses = timed.emitted() + timed_competitor->emitted();
            r.syscalls += timed_competitor->syscalls();
            if (slog)
                slog->add(SpanKind::TranslateSmt, setup_end, run_end);
        } else {
            r.initS = seconds(setup_end, timed.seam(run_end));
            r.measuredS = seconds(timed.seam(run_end), run_end);
            r.warmupAccesses = timed.warmupSeen();
            r.measuredAccesses = timed.measuredSeen();
            if (slog)
                timed.closeTranslate(run_end);
        }
        r.faultWalkRefs =
            timed.initFaultWalkRefs() + stats.mmu.faultWalkMemRefs;

        r.json = stats.toJson().dump();
        Clock::time_point json_end = Clock::now();
        r.statsJsonS = seconds(run_end, json_end);
        if (slog)
            slog->add(SpanKind::StatsJson, run_end, json_end);

        // Correctness, outside every phase timed above.
        uint64_t exempt = 0;
        if (fragmenter) {
            for (const auto &[pfn, order] : fragmenter->held())
                exempt += 1ull << order;
        }
        check::InvariantChecker::Targets targets;
        targets.as = &engine.addressSpace();
        targets.phys = &pm;
        targets.tlb = &engine.mmu().tlbs();
        targets.exemptFrames = exempt;
        check::CheckReport report =
            check::InvariantChecker(targets).checkAll();
        std::vector<std::string> problems;
        if (stats.warmup.accesses + stats.accesses != timed.emitted())
            problems.push_back(
                "init + measured accesses " +
                std::to_string(stats.warmup.accesses + stats.accesses) +
                " != " + std::to_string(timed.emitted()) + " emitted");
        if (stats.warmup.accesses != primary->warmupAccesses())
            problems.push_back(
                "init accesses " + std::to_string(stats.warmup.accesses) +
                " != warmupAccesses() " +
                std::to_string(primary->warmupAccesses()));
        if (!opts.smt && (timed.straddled() ||
                          timed.warmupSeen() != stats.warmup.accesses ||
                          timed.measuredSeen() != stats.accesses))
            problems.push_back("a chunk straddled the warmup seam");
        r.violations = report.count() + problems.size();
        if (!report.ok())
            problems.push_back(report.summary());
        Clock::time_point check_end = Clock::now();
        r.checkS = seconds(json_end, check_end);
        if (slog)
            slog->add(SpanKind::Check, json_end, check_end);
        if (!problems.empty()) {
            r.ok = false;
            for (const std::string &p : problems)
                r.error += (r.error.empty() ? "" : "; ") + p;
        }
        r.stats = std::move(stats);
    } catch (const SimError &e) {
        r.ok = false;
        r.error = std::string(errorKindName(e.kind())) + ": " + e.what();
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    // The cell ends after its simulator state is torn down.
    Clock::time_point end = Clock::now();
    r.cellS = seconds(start, end);
    if (slog)
        slog->closeAll(end);
    return r;
}

std::vector<CellResult>
runGrid(const Grid &grid, uint64_t seed, bool traced, double *grid_s)
{
    // One worker.  With two, graph500 cells translated up to 2x slower
    // whenever the other worker was building a CSR, depending on where
    // the host placed the two threads: runs split between two speeds.
    core::ExperimentRunner runner(1);
    Clock::time_point origin = Clock::now();
    std::vector<CellResult> cells = runner.map(
        grid.cells,
        [&](const core::RunOptions &o) {
            return runCell(o, seed, traced, origin);
        },
        [](const core::RunOptions &o, size_t) { return cellName(o); });
    *grid_s = seconds(origin, Clock::now());
    return cells;
}

// ----------------------------------------------------------------- output

/** Peak host RSS (VmHWM) of this process in MB; 0 if unreadable. */
double
peakRssMb()
{
    double mb = 0;
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu", &kb) == 1)
                mb = static_cast<double>(kb) / 1024.0;
        }
        std::fclose(f);
    }
    return mb;
}

obs::Json
cellJson(const CellResult &c)
{
    const sim::SimStats &s = c.stats;
    obs::Json j = obs::Json::object();
    j["label"] = c.label;
    j["ok"] = c.ok;
    j["error"] = c.error;
    j["smt"] = c.smt;
    j["start_s"] = c.startS;
    j["cell_s"] = c.cellS;
    j["setup_s"] = c.setupS;
    j["init_s"] = c.initS;
    j["measured_s"] = c.measuredS;
    j["smt_s"] = c.smtS;
    j["stats_json_s"] = c.statsJsonS;
    j["check_s"] = c.checkS;
    j["warmup_acc"] = c.warmupAccesses;
    j["measured_acc"] = c.measuredAccesses;
    j["smt_acc"] = c.smtAccesses;
    j["syscalls"] = c.syscalls;
    j["violations"] = c.violations;
    j["digest"] = fnv1a(c.json);
    j["l1_misses"] = s.l1TlbMisses;
    j["l2_hits"] = s.l2TlbHits;
    j["walks"] = s.tlbMisses;
    j["walk_refs"] = s.walkMemRefs;
    j["fault_walk_refs"] = c.faultWalkRefs;
    j["init_faults"] = s.warmup.faults;
    j["promotions"] = s.osWork.promotions;
    j["reservations_created"] = s.osWork.reservationsCreated;
    j["reservations_missed"] = s.osWork.reservationsMissed;
    j["buddy_allocs"] = s.buddy.allocs;
    j["buddy_splits"] = s.buddy.splits;
    j["buddy_failed_allocs"] = s.buddy.failedAllocs;
    j["compaction_migrated_frames"] = s.compaction.migratedFrames;
    j["memsys_accesses"] = s.memsys.accesses;
    j["dram_accesses"] = s.memsys.dramAccesses;
    return j;
}

/** Self time and span count per span name (sim.translate per tag). */
obs::Json
layerJson(const std::vector<CellResult> &cells)
{
    obs::Json j = obs::Json::object();
    for (size_t k = 0; k < kSpanKinds; ++k) {
        double self = 0;
        uint64_t count = 0;
        for (const CellResult &c : cells) {
            self += c.log->selfS(k);
            count += c.log->count(k);
        }
        std::string key = kSpanName[k];
        if (*kSpanTag[k])
            key += std::string(".") + kSpanTag[k];
        obs::Json e = obs::Json::object();
        e["self_s"] = self;
        e["spans"] = count;
        j[key] = std::move(e);
    }
    return j;
}

/**
 * Every span record as one JSON line: cell, name, tag, parent, first
 * start and last end in us from the grid's start, count and busy time.
 */
void
writeSpans(const std::string &path, const std::vector<CellResult> &cells,
           Clock::time_point origin)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        tps_fatal("cannot write spans to '%s'", path.c_str());
    auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    for (size_t ci = 0; ci < cells.size(); ++ci) {
        for (const Span &s : cells[ci].log->spans()) {
            size_t k = static_cast<size_t>(s.kind);
            std::fprintf(f,
                         "{\"cell\":%zu,\"label\":\"%s\",\"name\":\"%s\","
                         "\"tag\":\"%s\",\"parent\":%d,\"start_us\":%.3f,"
                         "\"end_us\":%.3f,\"count\":%llu,"
                         "\"busy_us\":%.3f}\n",
                         ci, cells[ci].label.c_str(), kSpanName[k],
                         kSpanTag[k], s.parent, us(s.start), us(s.end),
                         static_cast<unsigned long long>(s.count),
                         s.busyS * 1e6);
        }
    }
    if (std::fclose(f) != 0)
        tps_fatal("cannot write spans to '%s'", path.c_str());
}

// ----------------------------------------------------------------- modes

/**
 * At seed 0, each cell of every workload, decorated and untraced or
 * traced, must give toJson() byte-identical to core::runExperiment()'s.
 */
int
runIdentity()
{
    unsigned bad = 0, total = 0;
    for (const char *name : kWorkloads) {
        for (const core::RunOptions &opts : makeGrid(name).cells) {
            std::string ref = core::runExperiment(opts).toJson().dump();
            Clock::time_point now = Clock::now();
            CellResult plain = runCell(opts, 0, false, now);
            CellResult traced = runCell(opts, 0, true, now);
            const char *verdict = "ok";
            if (!plain.ok || !traced.ok)
                verdict = "FAILED";
            else if (plain.json != ref)
                verdict = "MISMATCH (untraced vs runExperiment)";
            else if (traced.json != ref)
                verdict = "MISMATCH (traced vs runExperiment)";
            bool good = std::strcmp(verdict, "ok") == 0;
            bad += good ? 0 : 1;
            ++total;
            std::printf("identity %-12s %-22s %s%s%s\n", name,
                        plain.label.c_str(), verdict,
                        plain.error.empty() ? "" : ": ",
                        plain.error.c_str());
        }
    }
    std::printf("identity: %u of %u cells identical to runExperiment\n",
                total - bad, total);
    return bad == 0 ? 0 : 1;
}

int
runPass(const std::string &name, uint64_t seed, bool traced,
        const std::string &spans_path)
{
    Grid grid = makeGrid(name);
    double grid_s = 0;
    Clock::time_point origin = Clock::now();
    std::vector<CellResult> cells = runGrid(grid, seed, traced, &grid_s);
    double rss_mb = peakRssMb();

    obs::Json j = obs::Json::object();
    j["workload"] = name;
    j["seed"] = seed;
    j["traced"] = traced;
    j["grid_s"] = grid_s;
    j["peak_rss_mb"] = rss_mb;
    obs::Json arr = obs::Json::array();
    for (const CellResult &c : cells) {
        if (!c.ok)
            std::fprintf(stderr, "cell %s/%s failed: %s\n", name.c_str(),
                         c.label.c_str(), c.error.c_str());
        arr.push(cellJson(c));
    }
    j["cells"] = std::move(arr);
    if (traced) {
        j["layers"] = layerJson(cells);
        if (!spans_path.empty())
            writeSpans(spans_path, cells, origin);
    }
    std::printf("%s\n", j.dump().c_str());
    return 0;
}

/**
 * Run the workload's overhead cell once, bare or with one observability
 * feature attached through the engine's setters.  The stats digest lets
 * the caller check that the feature is passive.
 */
int
runObs(const std::string &name, uint64_t seed, const std::string &feature)
{
    Grid grid = makeGrid(name);
    const core::RunOptions &opts = grid.cells[grid.overheadCell];
    obs::EventTrace trace;
    obs::MemTelemetry tel;
    core::RunHooks hooks;
    if (feature == "event_trace")
        hooks.trace = &trace;
    else if (feature == "mem_telemetry")
        hooks.memTelemetry = &tel;
    else if (feature != "bare")
        tps_fatal("unknown --obs feature '%s'", feature.c_str());
    CellResult c = runCell(opts, seed, false, Clock::now(), hooks);
    if (!c.ok)
        std::fprintf(stderr, "overhead cell %s/%s failed: %s\n",
                     name.c_str(), c.label.c_str(), c.error.c_str());
    obs::Json j = obs::Json::object();
    j["cell"] = c.label;
    j["ok"] = c.ok;
    j["cell_s"] = c.cellS - c.checkS;
    j["digest"] = fnv1a(c.json);
    j["events"] = static_cast<uint64_t>(trace.size());
    std::printf("%s\n", j.dump().c_str());
    return 0;
}

bool
parseU64(const char *s, uint64_t *out)
{
    if (*s == '\0')
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans;
    std::string obs_feature;
    uint64_t seed = 0;
    bool traced = false;
    bool identity = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--workload=", 11) == 0) {
            workload = arg + 11;
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            if (!parseU64(arg + 7, &seed))
                tps_fatal("bad --seed value '%s'", arg + 7);
        } else if (std::strcmp(arg, "--trace") == 0) {
            traced = true;
        } else if (std::strncmp(arg, "--spans=", 8) == 0) {
            spans = arg + 8;
        } else if (std::strncmp(arg, "--obs=", 6) == 0) {
            obs_feature = arg + 6;
        } else if (std::strcmp(arg, "--identity") == 0) {
            identity = true;
        } else {
            tps_fatal("unknown option '%s'", arg);
        }
    }
    if (identity)
        return runIdentity();
    if (workload.empty())
        tps_fatal("--workload=<name> is required");
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
        std::end(kWorkloads))
        tps_fatal("unknown workload '%s'", workload.c_str());
    if (!obs_feature.empty())
        return runObs(workload, seed, obs_feature);
    return runPass(workload, seed, traced, spans);
}
