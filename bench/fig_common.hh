/**
 * @file
 * Shared plumbing for the figure-regeneration benches: command-line
 * options, run helpers, and output formatting.  Every bench prints the
 * same series the paper plots plus a `paper:` reference line so
 * EXPERIMENTS.md can record measured-vs-published side by side.
 */

#ifndef TPS_BENCH_FIG_COMMON_HH
#define TPS_BENCH_FIG_COMMON_HH

#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/run_manifest.hh"
#include "obs/shard.hh"
#include "obs/sweep_monitor.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace tps::bench {

/** Options shared by all figure benches. */
struct FigOptions
{
    double scale = 1.0;        //!< workload scale factor
    uint64_t physBytes = 8ull << 30;
    bool csv = false;          //!< emit CSV instead of aligned text
    unsigned jobs = 0;         //!< worker threads; 0 = hw concurrency
    std::vector<std::string> benchmarks;  //!< default: evaluation suite
    uint64_t epochs = 0;       //!< epoch-sample interval in accesses
    std::string statsJson;     //!< write a run manifest here
    std::string tracePath;     //!< write a Chrome trace here
    bool progress = false;     //!< live per-cell progress on stderr
    bool paranoid = false;     //!< full invariant sweep after each cell
    uint64_t checkEvery = 0;   //!< in-run invariant check interval
    double cellTimeout = 0.0;  //!< per-cell wall-clock budget (seconds)
    unsigned retries = 0;      //!< extra attempts for a failed cell
    bool resume = false;       //!< skip cells already in --stats-json
    std::string eventTracePath; //!< write a binary event trace here
    bool profile = false;      //!< dump simulator self-profile to stderr
    bool memTelemetry = false;  //!< record physical-memory telemetry
    //! Workload footprint override in bytes (0 = workload default);
    //! physical capacity grows to fit automatically.
    uint64_t footprintBytes = 0;
    bool denseState = false;    //!< dense simulator-state oracle
    //! --shard=i/N: execute only the cells this shard owns (partition
    //! by canonical cell identity; see obs/shard.hh).
    obs::ShardSpec shard;
    std::string heartbeatPath;  //!< keep a tps-heartbeat file here
    double heartbeatInterval = 5.0;  //!< heartbeat period in seconds
};

/**
 * Parse common flags: --scale=<f>, --phys-gb=<n>, --csv, --jobs=<n>,
 * --benchmarks=a,b,c, --epochs=<n>, --stats-json=<path>,
 * --trace=<path>, --progress, --paranoid, --check-every=<n>,
 * --cell-timeout=<sec>, --retries=<n>, --resume,
 * --event-trace=<path>, --profile, --mem-telemetry,
 * --footprint=<size[kmgt]>, --dense-state, --shard=i/N,
 * --heartbeat=<path>, --heartbeat-interval=<sec>.  Values are parsed
 * strictly (trailing garbage, out-of-range, or nonsensical values like
 * --jobs=0 are rejected with a one-line error); unknown flags are fatal.
 */
FigOptions parseArgs(int argc, char **argv);

/**
 * Set up bench-wide observability from the parsed options: the sweep
 * monitor (--trace/--progress) and the --stats-json artifact
 * collector.  Call once at the top of main, after parseArgs().
 */
void initBench(const std::string &name, const FigOptions &opts);

/**
 * The bench-wide sweep monitor; nullptr without
 * --trace/--progress/--heartbeat.
 */
obs::SweepMonitor *sweepMonitor();

/**
 * The bench-wide shard plan: every unit the bench would run, in
 * planning order, plus this process's owned slice.  runCells and
 * friends register their work here before filtering, so every shard of
 * one command line plans the identical grid.
 */
obs::ShardPlan &shardPlan();

/** Record one completed run for the --stats-json manifest. */
void recordRun(const core::RunOptions &run, const sim::SimStats &stats,
               double wallSeconds);

/** Record a full cell artifact (failed, restored, or fresh). */
void recordArtifact(obs::CellArtifact cell);

/**
 * Write the artifacts the command line asked for (--stats-json
 * manifest, --trace Chrome trace, --event-trace event-trace container,
 * --profile stderr report).  Call once at the end of main.
 */
void finishBench(const FigOptions &opts);

/** The benchmark list a bench should iterate. */
const std::vector<std::string> &benchList(const FigOptions &opts);

/** Print the figure banner (id, title, what the paper reported). */
void printHeader(const std::string &fig_id, const std::string &title,
                 const std::string &paper_note);

/** Print @p table per the options (aligned text or CSV). */
void printTable(const FigOptions &opts, const Table &table);

/** Build RunOptions for one (workload, design) cell. */
core::RunOptions makeRun(const FigOptions &opts, const std::string &wl,
                         core::Design design);

/** Same with an SMT competitor (doubled physical memory). */
core::RunOptions makeSmtRun(const FigOptions &opts,
                            const std::string &wl, core::Design design);

/** Elimination percent clamped at zero (the paper reports >= 0). */
double elimPercent(uint64_t baseline, uint64_t with);

/** A run that also captures end-of-run address-space state. */
struct CensusRun
{
    sim::SimStats stats;
    Histogram pageSizes;       //!< log2(size) -> mapped page count
    uint64_t mappedBytes = 0;  //!< committed bytes incl. bloat
    uint64_t touchedPages = 0; //!< demand-touched base pages
    uint64_t chunks2m = 0;     //!< distinct 2 MB chunks with a mapping
};

/** Like core::runExperiment but keeps the page-table census. */
CensusRun runWithCensus(const core::RunOptions &opts);

/**
 * Run every cell on an opts.jobs-wide ExperimentRunner; the result is
 * index-aligned with @p cells.  Output is bit-identical for any job
 * count (each cell's seeds derive from its own identity).
 *
 * Cells are fault-isolated: a cell that throws is recorded as a
 * failed/timed-out manifest entry (with opts.retries re-attempts) and
 * returns zeroed stats; the sweep continues.  With --resume, cells
 * already completed in the prior --stats-json manifest are restored
 * instead of re-run.  With --shard=i/N, cells other shards own are
 * skipped entirely (zeroed stats, no manifest entry, no resume
 * lookup); the union of all shards' manifests is exactly the full
 * grid.
 */
std::vector<sim::SimStats> runCells(const FigOptions &opts,
                                    const std::vector<core::RunOptions> &cells);

/** Parallel runWithCensus over @p cells, index-aligned. */
std::vector<CensusRun>
runCellsWithCensus(const FigOptions &opts,
                   const std::vector<core::RunOptions> &cells);

/** One benchmark's Fig. 13/14 speedup estimates. */
struct SpeedupRow
{
    double tps = 1.0;
    double rmm = 1.0;
    double colt = 1.0;
    double idealSpeedup = 1.0;    //!< eliminate all translation time
    double tpsFracOfIdeal = 1.0;  //!< share of ideal savings TPS gets
};

/**
 * Run the paper's Sec. IV-B estimation pipeline for one benchmark:
 * measure the THP baseline (real, perfect-L2, perfect-L1 timing and
 * the THP-off calibration point), measure each design's miss/walk
 * eliminations, and apply the analytic model.
 *
 * @param smt        Run every configuration with a competing SMT
 *                   thread (Figure 14) instead of alone (Figure 13).
 * @param artifacts  When non-null, every underlying experiment run is
 *                   appended here (in a fixed order) for the manifest.
 */
SpeedupRow computeSpeedups(const FigOptions &opts, const std::string &wl,
                           bool smt,
                           std::vector<obs::CellArtifact> *artifacts =
                               nullptr);

/**
 * computeSpeedups for every benchmark in parallel, index-aligned.
 * With --shard=i/N each benchmark's whole pipeline is one atomic unit
 * of distribution; benchmarks other shards own report NaN rows.
 */
std::vector<SpeedupRow>
computeAllSpeedups(const FigOptions &opts,
                   const std::vector<std::string> &wls, bool smt);

} // namespace tps::bench

#endif // TPS_BENCH_FIG_COMMON_HH
