/**
 * @file
 * Figure 12: the fraction of page-walker cycles whose elimination
 * translates into total-execution-time savings, calibrated from two
 * measured configurations -- THP disabled (4 KB only) and THP enabled
 * -- exactly as the paper derived it from performance counters.
 */

#include "fig_common.hh"

#include "sim/perf_model.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig12_savable_pwc", opts);
    printHeader("Figure 12",
                "% of page-walker cycles savable (THP-off vs THP-on "
                "calibration)",
                "most benchmarks realize a large fraction of PWC "
                "savings as execution-time savings");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        cells.push_back(makeRun(opts, wl, core::Design::Base4k));
        cells.push_back(makeRun(opts, wl, core::Design::Thp));
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "TC thp-off", "PWC thp-off", "TC thp-on",
                 "PWC thp-on", "savable"});
    Summary sum;
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &wl = list[i];
        auto row = rowCells(results, 2 * i, 2);
        if (row.empty()) {
            addHoleRow(table, wl);
            continue;
        }
        const sim::SimStats &off = row[0]->stats;
        const sim::SimStats &on = row[1]->stats;
        sim::CounterPoint p_off{off.cycles, off.walkCycles};
        sim::CounterPoint p_on{on.cycles, on.walkCycles};
        double savable = sim::savablePwcFraction(p_off, p_on);
        sum.add(100.0 * savable);
        table.addRow({wl, fmtCount(off.cycles), fmtCount(off.walkCycles),
                      fmtCount(on.cycles), fmtCount(on.walkCycles),
                      fmtPercent(100.0 * savable)});
    }
    addSummaryRow(opts, table, "mean", sum.count(), list.size(),
                  {"", "", "", "", fmtPercent(sum.mean())});
    printTable(opts, table);
    return finishBench(opts);
}
