/**
 * @file
 * The figure table: one row per bench, each a declaration of its
 * banner, its cell grid and how its tables render from the grid's
 * results.  runFigure() (fig_common.cc) drives every row the same way.
 * Adding a figure means adding its cells and render functions here and
 * a row to figures().
 */

#include <iostream>
#include <set>

#include "fig_common.hh"
#include "obs/mem_telemetry.hh"
#include "os/fragmenter.hh"
#include "sim/perf_model.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workloads/registry.hh"

namespace tps::bench {

namespace {

// ---------------------------------------------------------------------
// Helpers shared by the rows.
// ---------------------------------------------------------------------

/** The benchmark list a figure iterates: --benchmarks or the suite. */
const std::vector<std::string> &
benchList(const FigOptions &opts)
{
    if (!opts.benchmarks.empty())
        return opts.benchmarks;
    return workloads::evaluationSuite();
}

/** The opts.run template for one (workload, design) cell. */
core::RunOptions
makeRun(const FigOptions &opts, const std::string &wl,
        core::Design design)
{
    core::RunOptions run = opts.run;
    run.workload = wl;
    run.design = design;
    return run;
}

/** Same with an SMT competitor (doubled physical memory). */
core::RunOptions
makeSmtRun(const FigOptions &opts, const std::string &wl,
           core::Design design)
{
    core::RunOptions run = makeRun(opts, wl, design);
    run.smt = true;
    // Two full workload instances need twice the physical memory.
    run.physBytes = opts.run.physBytes * 2;
    return run;
}

/** One cell per (benchmark, design), benchmark-major. */
std::vector<Cell>
designCells(const FigOptions &opts, std::vector<core::Design> designs,
            bool census = false)
{
    std::vector<Cell> cells;
    for (const auto &wl : benchList(opts))
        for (core::Design d : designs)
            cells.push_back({makeRun(opts, wl, d), census});
    return cells;
}

/** Elimination percent clamped at zero (the paper reports >= 0). */
double
elimPercent(uint64_t baseline, uint64_t with)
{
    double e = percentEliminated(baseline, with);
    return e < 0.0 ? 0.0 : e;
}

/**
 * Print @p table per the options (aligned text or CSV).  A sharded
 * run first marks it "partial (shard i/N)".
 */
void
printTable(const FigOptions &opts, const Table &table)
{
    if (opts.shard.active()) {
        std::cout << "partial (shard " << opts.shard.index << "/"
                  << opts.shard.count << ")\n";
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << std::endl;
}

/** Append a row of @p label followed by "—" in every column. */
void
addHoleRow(Table &table, const std::string &label)
{
    std::vector<std::string> row(table.columns(), kHole);
    row[0] = label;
    table.addRow(std::move(row));
}

/**
 * For each label, the results of its @p n consecutive cells (starting
 * at cell @p first): call @p fn(label, row), or add a hole row when
 * any of them is a hole.  Returns how many rows had data.
 */
template <typename Fn>
size_t
forEachRow(Table &table, const std::vector<std::string> &labels,
           const CellResults &results, size_t n, Fn fn, size_t first = 0)
{
    size_t covered = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
        std::vector<const CellResult *> row;
        for (size_t c = first + n * i; c < first + n * (i + 1); ++c) {
            if (!results[c])
                break;
            row.push_back(&*results[c]);
        }
        if (row.size() < n) {
            addHoleRow(table, labels[i]);
            continue;
        }
        fn(labels[i], row);
        ++covered;
    }
    return covered;
}

/** @p label, plus "(k of n rows)" when some rows had no data. */
std::string
summaryLabel(const std::string &label, size_t covered, size_t rows)
{
    if (covered == rows)
        return label;
    return label + " (" + std::to_string(covered) + " of " +
           std::to_string(rows) + " rows)";
}

/**
 * Append a summary row (e.g. the mean) over the @p covered of @p rows
 * table rows that had data.  @p values are the columns after the
 * label.  With none covered every non-empty value prints "—".  A
 * sharded run appends nothing: its rows are only the slice it owns.
 */
void
addSummaryRow(const FigOptions &opts, Table &table,
              const std::string &label, size_t covered, size_t rows,
              std::vector<std::string> values)
{
    if (opts.shard.active())
        return;
    if (covered == 0) {
        for (std::string &v : values)
            if (!v.empty())
                v = kHole;
    }
    values.insert(values.begin(), summaryLabel(label, covered, rows));
    table.addRow(std::move(values));
}

// ---------------------------------------------------------------------
// Figure 2: percent of execution time spent page walking under the THP
// baseline, native, native with a competing SMT thread, and virtualized
// (2-D walks).  The paper read real-machine counters; here the fraction
// is walker-active cycles over total cycles, capped at 1 as a counter's
// busy-cycle semantics would (concurrent walks each accrue latency).
// ---------------------------------------------------------------------

std::vector<Cell>
fig02Cells(const FigOptions &opts)
{
    std::vector<Cell> cells;
    for (const auto &wl : benchList(opts)) {
        core::RunOptions native = makeRun(opts, wl, core::Design::Thp);
        core::RunOptions virt = native;
        virt.virtualized = true;
        cells.push_back({native});
        cells.push_back({makeSmtRun(opts, wl, core::Design::Thp)});
        cells.push_back({virt});
    }
    return cells;
}

double
walkPercent(const sim::SimStats &stats)
{
    double f = stats.walkCycleFraction();
    return 100.0 * (f > 1.0 ? 1.0 : f);
}

void
fig02Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "native", "native-SMT", "virtualized"});
    Summary native_sum, smt_sum, virt_sum;
    size_t covered = forEachRow(
        table, list, results, 3, [&](const std::string &wl, auto &row) {
            double n = walkPercent(row[0]->stats);
            double s = walkPercent(row[1]->stats);
            double v = walkPercent(row[2]->stats);
            native_sum.add(n);
            smt_sum.add(s);
            virt_sum.add(v);
            table.addRow({wl, fmtPercent(n), fmtPercent(s),
                          fmtPercent(v)});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {fmtPercent(native_sum.mean()),
                   fmtPercent(smt_sum.mean()),
                   fmtPercent(virt_sum.mean())});
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figure 3: speedup of a perfect L1 TLB over a perfect-L2-TLB baseline
// (THP paging), from the cycle model.  L1 misses that hit the L2 TLB
// cost real time when accesses sit on the critical path (pointer
// chasing); the out-of-order window hides them otherwise.
// ---------------------------------------------------------------------

std::vector<Cell>
fig03Cells(const FigOptions &opts)
{
    std::vector<Cell> cells;
    for (const auto &wl : benchList(opts)) {
        core::RunOptions l2 = makeRun(opts, wl, core::Design::Thp);
        l2.timing = sim::TlbTimingMode::PerfectL2;
        core::RunOptions l1 = l2;
        l1.timing = sim::TlbTimingMode::PerfectL1;
        cells.push_back({l2});
        cells.push_back({l1});
    }
    return cells;
}

void
fig03Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "perfectL2 cycles", "perfectL1 cycles",
                 "speedup"});
    Summary sum;
    size_t covered = forEachRow(
        table, list, results, 2, [&](const std::string &wl, auto &row) {
            uint64_t c_l2 = row[0]->stats.cycles;
            uint64_t c_l1 = row[1]->stats.cycles;
            double speedup = ratio(c_l2, c_l1);
            sum.add(speedup);
            table.addRow({wl, fmtCount(c_l2), fmtCount(c_l1),
                          fmtDouble(speedup, 3)});
        });
    addSummaryRow(opts, table, "geomean", covered, list.size(),
                  {"", "", fmtDouble(sum.geomean(), 3)});
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figure 8: L1 DTLB misses per thousand instructions under the THP
// baseline across the whole profiling sweep (TLB-intensive suite plus
// the low-MPKI fillers).  The paper evaluated the SPEC17 benchmarks
// with MPKI > 5; the same cut is printed here.
// ---------------------------------------------------------------------

const std::vector<std::string> &
fig08List(const FigOptions &opts)
{
    return opts.benchmarks.empty() ? workloads::profilingSuite()
                                   : opts.benchmarks;
}

std::vector<Cell>
fig08Cells(const FigOptions &opts)
{
    std::vector<Cell> cells;
    for (const auto &wl : fig08List(opts))
        cells.push_back({makeRun(opts, wl, core::Design::Thp)});
    return cells;
}

void
fig08Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    // The MPKI > 5 cut applied to the SPEC17 candidates; the big-data
    // benchmarks were part of the evaluation regardless.
    auto is_big_data = [](const std::string &wl) {
        return wl == "gups" || wl == "graph500" || wl == "xsbench" ||
               wl == "dbx1000";
    };
    Table table({"benchmark", "MPKI", "selected"});
    forEachRow(table, fig08List(opts), results, 1,
               [&](const std::string &wl, auto &row) {
                   double mpki = row[0]->stats.mpki();
                   std::string verdict =
                       is_big_data(wl) ? "yes (big-data)"
                                       : (mpki > 5.0 ? "yes (MPKI > 5)"
                                                     : "no");
                   table.addRow({wl, fmtDouble(mpki, 2), verdict});
               });
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figure 9: increase in memory utilization if *only* 2 MB pages
// existed, relative to 4 KB demand paging, from a base-4K run's census:
// touched bytes vs the distinct 2 MB chunks containing any touched
// page, each fully committed.  TPS at its 100% promotion threshold
// matches the 4 KB footprint exactly -- the paper's "no additional
// memory cost" configuration.
// ---------------------------------------------------------------------

std::vector<Cell>
fig09Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Base4k, core::Design::Tps},
                       true);
}

void
fig09Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "4K bytes", "2M-only bytes", "increase",
                 "tps increase"});
    Summary sum;
    size_t covered = forEachRow(
        table, list, results, 2, [&](const std::string &wl, auto &row) {
            const core::Census &base = row[0]->census;
            const core::Census &tps = row[1]->census;
            uint64_t bytes_4k = base.mappedBytes;
            uint64_t bytes_2m = base.chunks2m << vm::kPageBits2M;
            double increase = percent(bytes_2m - bytes_4k, bytes_4k);
            double tps_increase =
                percent(tps.mappedBytes > bytes_4k
                            ? tps.mappedBytes - bytes_4k
                            : 0,
                        bytes_4k);
            sum.add(increase);
            table.addRow({wl, fmtSize(bytes_4k), fmtSize(bytes_2m),
                          fmtPercent(increase),
                          fmtPercent(tps_increase)});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {"", "", fmtPercent(sum.mean()), ""});
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figures 10 and 11: percent of L1 DTLB misses (Fig. 10) and of
// page-walk memory references (Fig. 11) eliminated relative to the
// reservation-based-THP baseline, lightly loaded memory, no compaction
// during the run.  Fig. 11 adds eager TPS: RMM (itself eager) and
// eager TPS have near-identical best-case reduction, and demand TPS
// gives most of it back without eager paging's allocation latency.
// ---------------------------------------------------------------------

std::vector<Cell>
fig10Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Thp, core::Design::Tps,
                              core::Design::Colt, core::Design::Rmm});
}

std::vector<Cell>
fig11Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Thp, core::Design::Tps,
                              core::Design::TpsEager, core::Design::Colt,
                              core::Design::Rmm});
}

/**
 * One row per benchmark: the THP baseline's @p counter, then the
 * percent each other design of the row eliminates, and their means.
 */
void
renderEliminated(const FigOptions &opts, const CellResults &results,
                 std::vector<std::string> columns,
                 uint64_t sim::SimStats::*counter)
{
    const auto &list = benchList(opts);
    const size_t designs = columns.size() - 1;
    Table table(columns);
    std::vector<Summary> sums(designs - 1);
    size_t covered = forEachRow(
        table, list, results, designs,
        [&](const std::string &wl, auto &row) {
            uint64_t thp = row[0]->stats.*counter;
            std::vector<std::string> cols{wl, fmtCount(thp)};
            for (size_t d = 1; d < designs; ++d) {
                double e = elimPercent(thp, row[d]->stats.*counter);
                sums[d - 1].add(e);
                cols.push_back(fmtPercent(e));
            }
            table.addRow(std::move(cols));
        });
    std::vector<std::string> means{""};
    for (const Summary &sum : sums)
        means.push_back(fmtPercent(sum.mean()));
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  std::move(means));
    printTable(opts, table);
}

void
fig10Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    renderEliminated(opts, results,
                     {"benchmark", "thp misses", "tps", "colt", "rmm"},
                     &sim::SimStats::l1TlbMisses);
}

void
fig11Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    renderEliminated(opts, results,
                     {"benchmark", "thp walk refs", "tps", "tps-eager",
                      "colt", "rmm"},
                     &sim::SimStats::walkMemRefs);
}

// ---------------------------------------------------------------------
// Figure 12: the fraction of page-walker cycles whose elimination
// translates into execution-time savings, calibrated from THP disabled
// (4 KB only) and THP enabled, as the paper derived it from counters.
// ---------------------------------------------------------------------

std::vector<Cell>
fig12Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Base4k, core::Design::Thp});
}

void
fig12Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "TC thp-off", "PWC thp-off", "TC thp-on",
                 "PWC thp-on", "savable"});
    Summary sum;
    size_t covered = forEachRow(
        table, list, results, 2, [&](const std::string &wl, auto &row) {
            const sim::SimStats &off = row[0]->stats;
            const sim::SimStats &on = row[1]->stats;
            sim::CounterPoint p_off{off.cycles, off.walkCycles};
            sim::CounterPoint p_on{on.cycles, on.walkCycles};
            double savable = sim::savablePwcFraction(p_off, p_on);
            sum.add(100.0 * savable);
            table.addRow({wl, fmtCount(off.cycles),
                          fmtCount(off.walkCycles), fmtCount(on.cycles),
                          fmtCount(on.walkCycles),
                          fmtPercent(100.0 * savable)});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {"", "", "", "", fmtPercent(sum.mean())});
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figures 13 and 14: estimated speedup of TPS, RMM and CoLT over the
// reservation-based-THP baseline via the paper's Sec. IV-B
// T = T_IDEAL + T_L1DTLBM + T_PW decomposition with the savable-PWC
// calibration of Figure 12: natively (Fig. 13), and with an SMT thread
// competing for core, cache and TLB resources (Fig. 14).
// ---------------------------------------------------------------------

/** Cells per benchmark in the Sec. IV-B speedup pipeline. */
constexpr size_t kSpeedupCells = 7;

/**
 * Each benchmark's estimation cells, in the order speedupRender()
 * reads them: the THP baseline (real, perfect-L2 and perfect-L1
 * timing), the THP-off calibration point, then TPS, RMM and CoLT.
 * With @p smt every configuration runs with a competing SMT thread.
 */
std::vector<Cell>
speedupCells(const FigOptions &opts, bool smt)
{
    std::vector<Cell> cells;
    for (const auto &wl : benchList(opts)) {
        auto cell = [&](core::Design d) {
            return smt ? makeSmtRun(opts, wl, d) : makeRun(opts, wl, d);
        };
        core::RunOptions perfect_l2 = cell(core::Design::Thp);
        perfect_l2.timing = sim::TlbTimingMode::PerfectL2;
        core::RunOptions perfect_l1 = perfect_l2;
        perfect_l1.timing = sim::TlbTimingMode::PerfectL1;
        for (const core::RunOptions &run :
             {cell(core::Design::Thp), perfect_l2, perfect_l1,
              cell(core::Design::Base4k), cell(core::Design::Tps),
              cell(core::Design::Rmm), cell(core::Design::Colt)}) {
            cells.push_back({run});
        }
    }
    return cells;
}

void
speedupRender(const FigOptions &opts, const std::vector<Cell> &,
              const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "tps", "rmm", "colt", "ideal",
                 "tps %-of-ideal"});
    Summary tps_sum, rmm_sum, colt_sum, frac_sum;
    size_t covered = forEachRow(
        table, list, results, kSpeedupCells,
        [&](const std::string &wl, auto &cells) {
            // THP baseline: real timing plus the two perfect-TLB
            // reference points and the THP-disabled calibration point.
            const sim::SimStats &thp = cells[0]->stats;
            const sim::SimStats &off = cells[3]->stats;
            double savable = sim::savablePwcFraction(
                sim::CounterPoint{off.cycles, off.walkCycles},
                sim::CounterPoint{thp.cycles, thp.walkCycles});
            auto estimate = [&](const sim::SimStats &s) {
                sim::SpeedupInputs in;
                in.baselineCycles = thp.cycles;
                in.perfectL2Cycles = cells[1]->stats.cycles;
                in.perfectL1Cycles = cells[2]->stats.cycles;
                in.baselinePwCycles = thp.walkCycles;
                in.savableFraction = savable;
                in.l1MissElimination =
                    elimPercent(thp.l1TlbMisses, s.l1TlbMisses) / 100.0;
                in.walkRefElimination =
                    elimPercent(thp.walkMemRefs, s.walkMemRefs) / 100.0;
                return sim::estimateSpeedup(in);
            };
            sim::SpeedupResult tps = estimate(cells[4]->stats);
            double rmm = estimate(cells[5]->stats).speedup;
            double colt = estimate(cells[6]->stats).speedup;
            tps_sum.add(tps.speedup);
            rmm_sum.add(rmm);
            colt_sum.add(colt);
            frac_sum.add(100.0 * tps.fractionOfIdeal());
            table.addRow({wl, fmtDouble(tps.speedup, 3),
                          fmtDouble(rmm, 3), fmtDouble(colt, 3),
                          fmtDouble(tps.idealSpeedup, 3),
                          fmtPercent(100.0 * tps.fractionOfIdeal())});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {fmtDouble(tps_sum.mean(), 3),
                   fmtDouble(rmm_sum.mean(), 3),
                   fmtDouble(colt_sum.mean(), 3), "",
                   fmtPercent(frac_sum.mean())});
    printTable(opts, table);

    if (opts.shard.active())
        return;
    std::string label =
        summaryLabel("mean improvement", covered, list.size());
    if (covered == 0) {
        std::printf("%s: %s\n", label.c_str(), kHole);
        return;
    }
    std::printf("%s: tps %+.1f%%  rmm %+.1f%%  colt %+.1f%%\n",
                label.c_str(), 100.0 * (tps_sum.mean() - 1.0),
                100.0 * (rmm_sum.mean() - 1.0),
                100.0 * (colt_sum.mean() - 1.0));
}

// ---------------------------------------------------------------------
// Figure 15: after aging physical memory into a heavily loaded,
// fragmented state, the fraction of free memory usable if only one
// page size existed, 4 KB through 16 MB.  Even under heavy
// fragmentation substantial intermediate contiguity exists for TPS,
// while little is usable by 2 MB+ sizes exclusively.  It runs no cells:
// the aged host is built and measured directly.
// ---------------------------------------------------------------------

std::vector<Cell>
fig15Cells(const FigOptions &)
{
    return {};
}

void
fig15Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &)
{
    os::PhysMemory pm(opts.run.physBytes);
    os::Fragmenter fragmenter(pm, os::FragmenterConfig{});
    fragmenter.run();

    const os::BuddyAllocator &buddy = pm.buddy();
    std::printf("memory: %s total, %s free (%.1f%%), "
                "fragmentation index %.3f\n\n",
                fmtSize(pm.totalBytes()).c_str(),
                fmtSize(pm.freeBytes()).c_str(),
                percent(buddy.freeFrames(), buddy.totalFrames()),
                buddy.fragmentationIndex());

    Table table({"page size", "coverage of free memory"});
    for (unsigned order = 0; order <= 12; ++order) {
        uint64_t bytes = vm::kBasePageBytes << order;
        table.addRow({fmtSize(bytes),
                      fmtPercent(100.0 * buddy.coverageAt(order))});
    }
    printTable(opts, table);

    Table lists({"order", "block size", "free blocks"});
    auto counts = buddy.freeListCounts();
    for (unsigned order = 0; order < counts.size(); ++order) {
        if (counts[order] == 0)
            continue;
        lists.addRow({std::to_string(order),
                      fmtSize(vm::kBasePageBytes << order),
                      fmtCount(counts[order])});
    }
    std::printf("buddyinfo-style free lists:\n");
    printTable(opts, lists);

    if (opts.run.memTelemetry) {
        // Per-size-class extfrag: 0 means a block of that size is
        // available (or memory is merely short); near 1 means the free
        // memory exists but is shattered below that size.
        Table frag({"page size", "extfrag index"});
        for (unsigned order = 0; order <= 12; ++order) {
            uint64_t bytes = vm::kBasePageBytes << order;
            frag.addRow({fmtSize(bytes),
                         fmtDouble(obs::extFragIndex(counts, order), 3)});
        }
        std::printf("extfrag index by page-size class:\n");
        printTable(opts, frag);
        std::printf("contiguity score: %.3f\n\n",
                    obs::contiguityScore(counts));
    }
}

// ---------------------------------------------------------------------
// Figure 16: percent of L1 DTLB misses eliminated by TPS vs the THP
// baseline when physical memory starts heavily fragmented (the
// Figure 15 state), no compaction during the run.  Workloads default
// to quarter size to fit the fragmented host's free memory.  GUPS sees
// minimal benefit (random access needs huge pages); workloads with
// reference locality keep most of theirs.
// ---------------------------------------------------------------------

std::vector<Cell>
fig16Cells(const FigOptions &opts)
{
    std::vector<Cell> cells =
        designCells(opts, {core::Design::Thp, core::Design::Tps});
    for (Cell &cell : cells)
        cell.run.fragmented = true;
    return cells;
}

void
fig16Render(const FigOptions &opts, const std::vector<Cell> &cells,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "thp misses", "tps misses", "eliminated"});
    Summary sum;
    size_t covered = forEachRow(
        table, list, results, 2, [&](const std::string &wl, auto &row) {
            uint64_t thp = row[0]->stats.l1TlbMisses;
            uint64_t tps = row[1]->stats.l1TlbMisses;
            double elim = elimPercent(thp, tps);
            sum.add(elim);
            table.addRow({wl, fmtCount(thp), fmtCount(tps),
                          fmtPercent(elim)});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {"", "", fmtPercent(sum.mean())});
    printTable(opts, table);

    if (!opts.run.memTelemetry)
        return;
    // End-of-run memory state per cell: how fragmented the 2 MB class
    // ended up, overall contiguity, and the largest page the design
    // actually mapped -- the fragmentation story behind the
    // elimination numbers above.
    constexpr unsigned kOrder2M = 9;
    Table mem({"benchmark", "design", "extfrag@2M", "contiguity",
               "reservations", "largest page"});
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!results[i])
            continue;
        const obs::MemTelemetryData &m = results[i]->stats.mem;
        if (!m.enabled || m.samples.empty())
            continue;
        const obs::MemEpochSample &last = m.samples.back();
        uint64_t largest_bits = 0;
        for (const auto &[bits, pages] : last.census) {
            if (pages > 0 && bits > largest_bits)
                largest_bits = bits;
        }
        const core::RunOptions &run = cells[i].run;
        mem.addRow({run.workload, core::designName(run.design),
                    fmtDouble(last.extFrag.size() > kOrder2M
                                  ? last.extFrag[kOrder2M]
                                  : 0.0,
                              3),
                    fmtDouble(last.contiguity, 3),
                    fmtCount(last.reservations),
                    largest_bits ? fmtSize(1ull << largest_bits) : "-"});
    }
    std::printf("end-of-run memory telemetry (final sample):\n");
    printTable(opts, mem);
}

// ---------------------------------------------------------------------
// Figure 17: percent of execution time spent in system (allocator and
// paging) work.  OS memory management is a tiny fraction of these
// memory-intensive workloads, so even a 10x increase from TPS's
// allocator would not matter.  Both whole-run (the paper's
// /usr/bin/time-style number, inflated here because scaled runs
// amortize startup over fewer instructions) and steady-state (measured
// phase only) are printed.
// ---------------------------------------------------------------------

std::vector<Cell>
fig17Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Thp, core::Design::Tps});
}

void
fig17Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    const auto &list = benchList(opts);
    Table table({"benchmark", "thp steady", "tps steady",
                 "thp whole-run", "tps whole-run", "tps/thp OS cycles"});
    Summary thp_sum, tps_sum;
    size_t covered = forEachRow(
        table, list, results, 2, [&](const std::string &wl, auto &row) {
            const sim::SimStats &thp = row[0]->stats;
            const sim::SimStats &tps = row[1]->stats;
            double thp_steady = 100.0 * thp.systemTimeFraction();
            double tps_steady = 100.0 * tps.systemTimeFraction();
            thp_sum.add(thp_steady);
            tps_sum.add(tps_steady);
            table.addRow(
                {wl, fmtPercent(thp_steady), fmtPercent(tps_steady),
                 fmtPercent(100.0 * thp.fullRunSystemTimeFraction()),
                 fmtPercent(100.0 * tps.fullRunSystemTimeFraction()),
                 fmtDouble(ratio(tps.osWork.totalCycles(),
                                 thp.osWork.totalCycles()),
                           2)});
        });
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {fmtPercent(thp_sum.mean()), fmtPercent(tps_sum.mean()),
                   "", "", ""});
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Figure 18: how many pages of each size every benchmark uses under
// TPS at the end of its run.  Every workload uses nearly all sizes,
// more of the smaller ones (the conservative promotion policy), and
// the small total count is what lets TPS eliminate nearly all TLB
// misses.
// ---------------------------------------------------------------------

std::vector<Cell>
fig18Cells(const FigOptions &opts)
{
    return designCells(opts, {core::Design::Tps}, true);
}

void
fig18Render(const FigOptions &opts, const std::vector<Cell> &,
            const CellResults &results)
{
    // Columns: one per page size that appears anywhere.
    std::set<uint64_t> sizes;
    for (const auto &res : results) {
        if (!res)
            continue;
        for (const auto &[pb, count] : res->census.pageSizes.buckets())
            if (count > 0)
                sizes.insert(pb);
    }

    std::vector<std::string> headers{"benchmark"};
    for (uint64_t pb : sizes)
        headers.push_back(fmtSize(1ull << pb));
    headers.push_back("total pages");
    Table table(std::move(headers));
    forEachRow(table, benchList(opts), results, 1,
               [&](const std::string &wl, auto &row) {
                   const Histogram &pages = row[0]->census.pageSizes;
                   std::vector<std::string> cols{wl};
                   for (uint64_t pb : sizes) {
                       uint64_t count = pages.at(pb);
                       cols.push_back(count == 0 ? "." : fmtCount(count));
                   }
                   cols.push_back(fmtCount(pages.total()));
                   table.addRow(std::move(cols));
               });
    printTable(opts, table);
}

// ---------------------------------------------------------------------
// Ablations over TPS's design choices, beyond the paper's figures:
// the promotion threshold (Sec. III-B1's conservative..aggressive
// dial: L1 misses vs committed-memory bloat), the alias-PTE mode
// (Sec. III-A1: pointer aliases' extra walk access vs full-copy
// aliases' PTE-update fan-out), the TPS TLB's capacity and
// organization, and the paging-structure caches.  --benchmarks=a,b
// picks the main and the sparse workload (default xsbench, gcc).
// ---------------------------------------------------------------------

/** One ablation: a titled table with one cell per row. */
struct Ablation
{
    std::string heading;
    std::vector<std::string> columns;
    std::vector<std::string> labels;
    std::vector<core::RunOptions> runs;  //!< index-aligned with labels
    bool census = false;
    //! The columns after the label, from the row's cell.
    std::vector<std::string> (*row)(const CellResult &res);
};

std::string
missRate(const sim::SimStats &s)
{
    return fmtPercent(percent(s.l1TlbMisses, s.accesses));
}

std::vector<Ablation>
ablations(const FigOptions &opts)
{
    if (opts.benchmarks.size() > 2) {
        tps_fatal("ablations takes at most two --benchmarks names (the "
                  "main and the sparse workload), got %zu",
                  opts.benchmarks.size());
    }
    const std::string wl =
        opts.benchmarks.empty() ? "xsbench" : opts.benchmarks[0];
    const std::string sparse_wl =
        opts.benchmarks.size() > 1 ? opts.benchmarks[1] : "gcc";
    auto tps = [&](const std::string &w) {
        return makeRun(opts, w, core::Design::Tps);
    };

    Ablation threshold{"-- promotion threshold sweep (" + sparse_wl +
                           ") --",
                       {"threshold", "L1 miss rate", "walk refs",
                        "committed bytes", "pages"},
                       {}, {}, true,
                       [](const CellResult &res) {
                           return std::vector<std::string>{
                               missRate(res.stats),
                               fmtCount(res.stats.walkMemRefs),
                               fmtSize(res.census.mappedBytes),
                               fmtCount(res.census.pageSizes.total())};
                       }};
    for (double t : {1.0, 0.75, 0.5, 0.25}) {
        threshold.labels.push_back(fmtPercent(100.0 * t));
        threshold.runs.push_back(tps(sparse_wl));
        threshold.runs.back().tpsThreshold = t;
    }

    Ablation alias{"-- alias-PTE mode (" + wl + ") --",
                   {"mode", "walk refs", "alias extra refs", "PTE writes",
                    "alias writes"},
                   {"pointer", "full-copy"}, {tps(wl), tps(wl)}, false,
                   [](const CellResult &res) {
                       const sim::SimStats &s = res.stats;
                       return std::vector<std::string>{
                           fmtCount(s.walkMemRefs),
                           fmtCount(s.walker.aliasExtra),
                           fmtCount(s.osWork.pteCycles /
                                    os::oscost::kPteWrite),
                           fmtCount(s.osWork.promotions)};
                   }};
    alias.runs[0].aliasMode = vm::AliasMode::Pointer;
    alias.runs[1].aliasMode = vm::AliasMode::FullCopy;

    auto tlb_row = [](const CellResult &res) {
        return std::vector<std::string>{missRate(res.stats),
                                        fmtCount(res.stats.tlbMisses)};
    };
    auto tlb_sweep = [&](const char *title, const char *column,
                         const std::string &w,
                         std::vector<std::string> labels,
                         std::vector<std::pair<unsigned, bool>> tlbs) {
        Ablation a{std::string("-- TPS TLB ") + title + " (" + w + ") --",
                   {column, "L1 miss rate", "walks"}, std::move(labels),
                   {}, false, tlb_row};
        for (auto [entries, skewed] : tlbs) {
            a.runs.push_back(tps(w));
            a.runs.back().tpsTlbEntries = entries;
            a.runs.back().tpsTlbSkewed = skewed;
        }
        return a;
    };

    Ablation mmu{"-- paging-structure caches (gups, base-4K paging) --",
                 {"MMU caches", "walks", "walk refs", "refs per walk"},
                 {"on", "off"},
                 {makeRun(opts, "gups", core::Design::Base4k),
                  makeRun(opts, "gups", core::Design::Base4k)},
                 false,
                 [](const CellResult &res) {
                     const sim::SimStats &s = res.stats;
                     return std::vector<std::string>{
                         fmtCount(s.tlbMisses), fmtCount(s.walkMemRefs),
                         fmtDouble(ratio(s.walkMemRefs, s.tlbMisses), 2)};
                 }};
    mmu.runs[1].noMmuCache = true;

    return {threshold, alias,
            tlb_sweep("capacity", "entries", wl, {"8", "16", "32", "64"},
                      {{8, false}, {16, false}, {32, false}, {64, false}}),
            tlb_sweep("organization", "organization", sparse_wl,
                      {"fully-assoc 32", "skewed 32x4", "skewed 64x4"},
                      {{32, false}, {32, true}, {64, true}}),
            mmu};
}

std::vector<Cell>
ablationCells(const FigOptions &opts)
{
    std::vector<Cell> cells;
    for (const Ablation &a : ablations(opts))
        for (const core::RunOptions &run : a.runs)
            cells.push_back({run, a.census});
    return cells;
}

void
ablationRender(const FigOptions &opts, const std::vector<Cell> &,
               const CellResults &results)
{
    size_t first = 0;
    for (const Ablation &a : ablations(opts)) {
        std::printf("%s\n", a.heading.c_str());
        Table table(a.columns);
        forEachRow(
            table, a.labels, results, 1,
            [&](const std::string &label, auto &row) {
                std::vector<std::string> cols = a.row(*row[0]);
                cols.insert(cols.begin(), label);
                table.addRow(std::move(cols));
            },
            first);
        printTable(opts, table);
        first += a.runs.size();
    }
}

/** fig16's defaults: quarter-size footprints fit the fragmented host. */
FigOptions
fig16Defaults()
{
    FigOptions opts;
    opts.run.scale = 0.25;
    return opts;
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {"fig02_pagewalk_overhead", "Figure 2",
         "page-walk overhead: % of execution time spent walking (THP "
         "baseline)",
         "native overhead is modest; SMT interference and virtualized "
         "2-D walks increase it significantly",
         {}, fig02Cells, fig02Render},
        {"fig03_perfect_l1", "Figure 3",
         "speedup of perfect L1 TLB over perfect-L2-TLB baseline",
         "appreciable speedups for workloads whose memory accesses are "
         "on the critical path",
         {}, fig03Cells, fig03Render},
        {"fig08_mpki", "Figure 8",
         "L1 DTLB MPKI per benchmark (THP baseline)",
         "evaluated benchmarks were chosen with MPKI > 5; low-locality "
         "fillers fall below the cut",
         {}, fig08Cells, fig08Render},
        {"fig09_mem_bloat", "Figure 9",
         "memory-utilization increase with exclusive 2 MB pages",
         "only modest increases for these benchmarks; TPS at 100% "
         "threshold adds exactly zero",
         {}, fig09Cells, fig09Render},
        {"fig10_l1_misses_eliminated", "Figure 10",
         "% of L1 DTLB misses eliminated (baseline: reservation-based "
         "THP)",
         "TPS 98.0% mean, CoLT 36.6%, RMM ~0% (range TLB sits at L2); "
         "CoLT minimal on GUPS",
         {}, fig10Cells, fig10Render},
        {"fig11_walk_refs_eliminated", "Figure 11",
         "% of page-walk memory references eliminated (baseline: "
         "reservation-based THP)",
         "TPS ~98% mean; RMM and eager TPS near-identical best case; TPS "
         "beats RMM on gcc (range-TLB capacity)",
         {}, fig11Cells, fig11Render},
        {"fig12_savable_pwc", "Figure 12",
         "% of page-walker cycles savable (THP-off vs THP-on "
         "calibration)",
         "most benchmarks realize a large fraction of PWC savings as "
         "execution-time savings",
         {}, fig12Cells, fig12Render},
        {"fig13_speedup_native", "Figure 13",
         "estimated speedup over THP baseline, native (no SMT)",
         "TPS 15.7% mean vs RMM 9.4% and CoLT 2.7%; TPS realizes 99.2% "
         "of the maximal ideal savings",
         {}, [](const FigOptions &o) { return speedupCells(o, false); },
         speedupRender},
        {"fig14_speedup_smt", "Figure 14",
         "estimated speedup over THP baseline, native (SMT)",
         "TPS 21.6% mean vs RMM 15.2% and CoLT 4.7%; TPS realizes 97.7% "
         "of the maximal ideal savings",
         {}, [](const FigOptions &o) { return speedupCells(o, true); },
         speedupRender},
        {"fig15_free_coverage", "Figure 15",
         "% of free memory coverable by each single page size on a "
         "fragmented host",
         "100% at 4 KB declining smoothly; significant intermediate "
         "contiguity, little at 2 MB and beyond",
         {}, fig15Cells, fig15Render},
        {"fig16_fragmented", "Figure 16",
         "% of L1 DTLB misses eliminated under heavy fragmentation "
         "(baseline: THP)",
         "GUPS minimal; XSBench/Graph500-class locality retains "
         "significant reduction",
         fig16Defaults(), fig16Cells, fig16Render},
        {"fig17_system_time", "Figure 17",
         "% of execution time spent in system (OS) work",
         "average 0.16% on real whole-length runs; even a 10x increase "
         "would not cause significant slowdown",
         {}, fig17Cells, fig17Render},
        {"fig18_page_size_census", "Figure 18",
         "per-benchmark page-size counts under TPS",
         "all workloads use many sizes; small total page counts are what "
         "give TPS its reach",
         {}, fig18Cells, fig18Render},
        {"ablations", "Ablations",
         "TPS design-choice sweeps (threshold, alias mode, TLB capacity, "
         "MMU caches)",
         "design-space context beyond the published figures",
         {}, ablationCells, ablationRender},
    };
    return table;
}

} // namespace tps::bench
