/**
 * @file
 * Shared plumbing for the figure-regeneration benches: command-line
 * options, run helpers, and output formatting.  Every bench prints the
 * same series the paper plots plus a `paper:` reference line so
 * EXPERIMENTS.md can record measured-vs-published side by side.
 */

#ifndef TPS_BENCH_FIG_COMMON_HH
#define TPS_BENCH_FIG_COMMON_HH

#include <optional>
#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "obs/shard.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace tps::bench {

/** Options shared by all figure benches. */
struct FigOptions
{
    //! The template makeRun() copies into every cell: --scale,
    //! --phys-gb, --epochs, --paranoid, --check-every, --cell-timeout,
    //! --mem-telemetry, --footprint and --dense-state write into it.
    core::RunOptions run;
    bool csv = false;          //!< emit CSV instead of aligned text
    unsigned jobs = 0;         //!< worker threads; 0 = hw concurrency
    std::vector<std::string> benchmarks;  //!< default: evaluation suite
    std::string statsJson;     //!< write a run manifest here
    std::string tracePath;     //!< write a Chrome trace here
    bool progress = false;     //!< live per-cell progress on stderr
    unsigned retries = 0;      //!< extra attempts for a failed cell
    bool resume = false;       //!< skip cells already in --stats-json
    std::string eventTracePath; //!< write a binary event trace here
    bool profile = false;      //!< dump simulator self-profile to stderr
    //! --shard=i/N: execute only the cells this shard owns (partition
    //! by canonical cell identity; see obs/shard.hh).
    obs::ShardSpec shard;
    std::string heartbeatPath;  //!< keep a tps-heartbeat file here
    double heartbeatInterval = 5.0;  //!< heartbeat period in seconds
};

/**
 * Parse common flags over the defaults in @p opts: --scale=<f>,
 * --phys-gb=<n>, --csv, --jobs=<n>, --benchmarks=a,b,c, --epochs=<n>,
 * --stats-json=<path>, --trace=<path>, --progress, --paranoid,
 * --check-every=<n>, --cell-timeout=<sec>, --retries=<n>, --resume,
 * --event-trace=<path>, --profile, --mem-telemetry,
 * --footprint=<size[kmgt]>, --dense-state, --shard=i/N,
 * --heartbeat=<path>, --heartbeat-interval=<sec>.  Values are parsed
 * strictly (trailing garbage, out-of-range, or nonsensical values like
 * --jobs=0 are rejected with a one-line error); unknown flags are fatal.
 */
FigOptions parseArgs(int argc, char **argv, FigOptions opts = {});

/**
 * Set up bench-wide observability from the parsed options: the sweep
 * monitor (--trace/--progress) and the --stats-json artifact
 * collector.  Call once at the top of main, after parseArgs().
 */
void initBench(const std::string &name, const FigOptions &opts);

/**
 * Write the artifacts the command line asked for (--stats-json
 * manifest, --trace Chrome trace, --event-trace event-trace container,
 * --profile stderr report).  Call once at the end of main and return
 * its result, the bench's exit status: 1 when any cell of an unsharded
 * run ended failed or timed out, else 0.  A shard exits 0 either way;
 * `tps merge --require-complete` reports its failed cells as holes.
 */
int finishBench(const FigOptions &opts);

/** The benchmark list a bench should iterate. */
const std::vector<std::string> &benchList(const FigOptions &opts);

/** Print the figure banner (id, title, what the paper reported). */
void printHeader(const std::string &fig_id, const std::string &title,
                 const std::string &paper_note);

/**
 * Print @p table per the options (aligned text or CSV).  A sharded
 * run first marks it "partial (shard i/N)".
 */
void printTable(const FigOptions &opts, const Table &table);

/** The opts.run template for one (workload, design) cell. */
core::RunOptions makeRun(const FigOptions &opts, const std::string &wl,
                         core::Design design);

/** Same with an SMT competitor (doubled physical memory). */
core::RunOptions makeSmtRun(const FigOptions &opts,
                            const std::string &wl, core::Design design);

/** Elimination percent clamped at zero (the paper reports >= 0). */
double elimPercent(uint64_t baseline, uint64_t with);

/** One cell's data: its statistics, plus its census when asked. */
struct CellResult
{
    sim::SimStats stats;
    core::Census census;  //!< filled only by runCells(..., census=true)
};

/** runCells' output: one entry per cell, empty for a hole. */
using CellResults = std::vector<std::optional<CellResult>>;

/**
 * Run every cell on an opts.jobs-wide ExperimentRunner.  This is the
 * only way a bench runs cells.  The result is index-aligned with
 * @p cells and bit-identical for any job count (each cell's seeds
 * derive from its own identity).
 *
 * A cell that did not produce data here is a *hole*: an empty entry,
 * never zeroed stats.
 *  - A failed or timed-out cell (after opts.retries extra attempts) is
 *    recorded as a failed/timeout manifest entry, warned about in one
 *    stderr line, and makes an unsharded run's finishBench() return a
 *    non-zero status.
 *  - With --shard=i/N, cells other shards own are skipped entirely (no
 *    manifest entry, no resume lookup); the union of all shards'
 *    manifests is exactly the full grid.
 *
 * With --resume, cells completed in the prior --stats-json manifest
 * are restored instead of re-run.
 *
 * With @p census each cell also captures its end-of-run core::Census.
 * A manifest stores no census, so census cells always run, even
 * under --resume.
 *
 * Tables render holes with the helpers below: a row that needs a hole
 * prints "—" and stays out of the summary rows.
 */
CellResults runCells(const FigOptions &opts,
                     const std::vector<core::RunOptions> &cells,
                     bool census = false);

/**
 * The results of cells [first, first + n), or an empty vector when any
 * of them is a hole (a row that needs a hole is itself a hole).
 */
std::vector<const CellResult *> rowCells(const CellResults &results,
                                         size_t first, size_t n);

/** Append a row of @p label followed by "—" in every column. */
void addHoleRow(Table &table, const std::string &label);

/**
 * Append a summary row (e.g. the mean) over the @p covered of @p rows
 * table rows that had data.  @p values are the columns after the
 * label.  When rows are missing the label says so ("mean (2 of 3
 * rows)"), and with none covered every non-empty value prints "—".  A
 * sharded run appends nothing: its rows are only the slice it owns.
 */
void addSummaryRow(const FigOptions &opts, Table &table,
                   const std::string &label, size_t covered, size_t rows,
                   std::vector<std::string> values);

/**
 * Run and print Figure 13 (@p smt false) or Figure 14 (true): the
 * paper's Sec. IV-B speedup estimates, seven cells per benchmark.
 */
void printSpeedupFigure(const FigOptions &opts, bool smt);

} // namespace tps::bench

#endif // TPS_BENCH_FIG_COMMON_HH
