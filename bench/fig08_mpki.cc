/**
 * @file
 * Figure 8: L1 DTLB misses per thousand instructions under the THP
 * baseline, across the whole profiling sweep (TLB-intensive suite plus
 * the low-MPKI fillers).  The paper selected the SPEC17 benchmarks with
 * MPKI > 5 for evaluation; the same cut is printed here.
 */

#include "fig_common.hh"

#include <string>

#include "workloads/registry.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig08_mpki", opts);
    printHeader("Figure 8",
                "L1 DTLB MPKI per benchmark (THP baseline)",
                "evaluated benchmarks were chosen with MPKI > 5; "
                "low-locality fillers fall below the cut");

    const auto &list = opts.benchmarks.empty()
                           ? workloads::profilingSuite()
                           : opts.benchmarks;

    // The MPKI > 5 cut applied to the SPEC17 candidates; the big-data
    // benchmarks were part of the evaluation regardless.
    auto is_big_data = [](const std::string &wl) {
        return wl == "gups" || wl == "graph500" || wl == "xsbench" ||
               wl == "dbx1000";
    };

    std::vector<core::RunOptions> cells;
    for (const auto &wl : list)
        cells.push_back(makeRun(opts, wl, core::Design::Thp));
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "MPKI", "selected"});
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &wl = list[i];
        if (!results[i]) {
            addHoleRow(table, wl);
            continue;
        }
        double mpki = results[i]->stats.mpki();
        std::string verdict = is_big_data(wl)
                                  ? "yes (big-data)"
                                  : (mpki > 5.0 ? "yes (MPKI > 5)"
                                                : "no");
        table.addRow({wl, fmtDouble(mpki, 2), verdict});
    }
    printTable(opts, table);
    return finishBench(opts);
}
