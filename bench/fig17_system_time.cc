/**
 * @file
 * Figure 17: percent of total execution time spent in system
 * (allocator/paging) work.  The paper's point: OS memory-management
 * work is a tiny fraction of these memory-intensive workloads, so even
 * a 10x increase from TPS's added allocator complexity would not
 * matter.  Both views are printed: whole-run (init + measured, the
 * paper's /usr/bin/time-style number -- inflated here because scaled
 * runs amortize startup over fewer instructions) and steady-state
 * (measured phase only).
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig17_system_time", opts);
    printHeader("Figure 17",
                "% of execution time spent in system (OS) work",
                "average 0.16% on real whole-length runs; even a 10x "
                "increase would not cause significant slowdown");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        cells.push_back(makeRun(opts, wl, core::Design::Thp));
        cells.push_back(makeRun(opts, wl, core::Design::Tps));
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "thp steady", "tps steady",
                 "thp whole-run", "tps whole-run", "tps/thp OS cycles"});
    Summary thp_sum, tps_sum;
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &wl = list[i];
        auto row = rowCells(results, 2 * i, 2);
        if (row.empty()) {
            addHoleRow(table, wl);
            continue;
        }
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
    }
    addSummaryRow(opts, table, "mean", thp_sum.count(), list.size(),
                  {fmtPercent(thp_sum.mean()), fmtPercent(tps_sum.mean()),
                   "", "", ""});
    printTable(opts, table);
    return finishBench(opts);
}
