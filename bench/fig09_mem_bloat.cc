/**
 * @file
 * Figure 9: increase in memory utilization if *only* 2 MB pages
 * existed, relative to 4 KB demand paging.  Computed from a base-4K
 * run: the 4 KB footprint is the touched bytes; the exclusive-2 MB
 * footprint is the distinct 2 MB chunks containing any touched page,
 * each fully committed.  Also reports TPS at its 100% promotion
 * threshold, which matches the 4 KB footprint exactly -- the paper's
 * "no additional memory cost" configuration.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig09_mem_bloat", opts);
    printHeader("Figure 9",
                "memory-utilization increase with exclusive 2 MB pages",
                "only modest increases for these benchmarks; TPS at "
                "100% threshold adds exactly zero");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        cells.push_back(makeRun(opts, wl, core::Design::Base4k));
        cells.push_back(makeRun(opts, wl, core::Design::Tps));
    }
    CellResults results = runCells(opts, cells, true);

    Table table({"benchmark", "4K bytes", "2M-only bytes", "increase",
                 "tps increase"});
    Summary sum;
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &wl = list[i];
        auto row = rowCells(results, 2 * i, 2);
        if (row.empty()) {
            addHoleRow(table, wl);
            continue;
        }
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
                      fmtPercent(increase), fmtPercent(tps_increase)});
    }
    addSummaryRow(opts, table, "mean", sum.count(), list.size(),
                  {"", "", fmtPercent(sum.mean()), ""});
    printTable(opts, table);
    return finishBench(opts);
}
