/**
 * @file
 * The figure benches: each paper figure (and the ablations) is one row
 * of figures(), a declaration of its banner, its cell grid and how its
 * tables render.  runFigure() is the one driver: it parses the common
 * flags, runs the figure's whole grid as one sweep, renders it and
 * writes the artifacts the flags ask for.  Every bench prints the same
 * series the paper plots plus a `paper:` reference line so
 * EXPERIMENTS.md can record measured-vs-published side by side.
 */

#ifndef TPS_BENCH_FIG_COMMON_HH
#define TPS_BENCH_FIG_COMMON_HH

#include <optional>
#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "obs/shard.hh"

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

/** One cell of a figure's grid. */
struct Cell
{
    core::RunOptions run;
    //! Also capture the cell's end-of-run core::Census.  A manifest
    //! stores no census, so a census cell always runs, even under
    //! --resume.
    bool census = false;
};

/** One cell's data: its statistics, plus its census when asked. */
struct CellResult
{
    sim::SimStats stats;
    core::Census census;  //!< filled only for Cell::census cells
};

/**
 * A sweep's output, index-aligned with its cells and bit-identical for
 * any job count (each cell's seeds derive from its own identity).  A
 * cell whose identity an earlier cell of the grid has runs, and is
 * recorded, once; both entries hold that one result.  A cell that did
 * not produce data is a *hole*: an empty entry, never zeroed stats.
 *  - A failed or timed-out cell (after --retries extra attempts) is
 *    recorded as a failed/timeout manifest entry, warned about in one
 *    stderr line, and makes an unsharded run exit 1.
 *  - With --shard=i/N, cells other shards own are skipped entirely (no
 *    manifest entry, no resume lookup); the union of all shards'
 *    manifests is exactly the full grid.
 * With --resume, cells completed in the prior --stats-json manifest
 * are restored instead of re-run.  Tables print a row that needs a
 * hole as "—" and keep it out of the summary rows.
 */
using CellResults = std::vector<std::optional<CellResult>>;

/** What a table prints for a value whose cells did not all run. */
inline constexpr const char *kHole = "—";

/** One figure bench: a row of figures(). */
struct Figure
{
    std::string name;     //!< binary, `tps fig` and manifest bench name
    std::string id;       //!< banner id, e.g. "Figure 10"
    std::string title;    //!< what the figure shows
    std::string paper;    //!< what the paper reported
    FigOptions defaults;  //!< flag defaults the command line overrides
    //! The figure's whole grid, in the order render() reads it.
    std::vector<Cell> (*cells)(const FigOptions &opts);
    //! Print the figure's tables from its grid's results.
    void (*render)(const FigOptions &opts, const std::vector<Cell> &cells,
                   const CellResults &results);
};

/** The figure table: the 13 paper figures, then the ablations. */
const std::vector<Figure> &figures();

/**
 * Run the figure bench @p name with the flags in argv[1..argc) and
 * return its exit status.  The flags: --scale=<f>, --phys-gb=<n>,
 * --csv, --jobs=<n>, --benchmarks=a,b,c, --epochs=<n>,
 * --stats-json=<path>, --progress, --paranoid, --check-every=<n>,
 * --cell-timeout=<sec>, --retries=<n>, --resume, --event-trace=<path>,
 * --profile, --mem-telemetry, --footprint=<size[kmgt]>, --dense-state,
 * --shard=i/N, --heartbeat=<path>, --heartbeat-interval=<sec>.
 * --progress and --heartbeat render the same sweep counters (see
 * obs/sweep_monitor.hh).  Values are parsed
 * strictly; an unknown figure or flag, or a bad or empty value, is one
 * "fatal:" line and exit 1.  The status is 1 when any cell of an
 * unsharded run failed or timed out, else 0: a shard exits 0 either
 * way, and `tps merge --require-complete` reports its failed cells as
 * holes.
 */
int runFigure(const std::string &name, int argc, char **argv);

} // namespace tps::bench

#endif // TPS_BENCH_FIG_COMMON_HH
