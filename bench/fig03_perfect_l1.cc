/**
 * @file
 * Figure 3: speedup of a perfect L1 TLB over a perfect-L2-TLB baseline
 * (THP paging), from the cycle model.  Shows that L1 TLB misses that
 * still hit the L2 TLB cost real time when accesses sit on the critical
 * path (pointer chasing), while the out-of-order window hides them for
 * independent-access workloads.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig03_perfect_l1", opts);
    printHeader("Figure 3",
                "speedup of perfect L1 TLB over perfect-L2-TLB baseline",
                "appreciable speedups for workloads whose memory "
                "accesses are on the critical path");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        core::RunOptions l2 = makeRun(opts, wl, core::Design::Thp);
        l2.timing = sim::TlbTimingMode::PerfectL2;
        core::RunOptions l1 = l2;
        l1.timing = sim::TlbTimingMode::PerfectL1;
        cells.push_back(l2);
        cells.push_back(l1);
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "perfectL2 cycles", "perfectL1 cycles",
                 "speedup"});
    Summary sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row = rowCells(results, 2 * i, 2);
        if (row.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        uint64_t c_l2 = row[0]->stats.cycles;
        uint64_t c_l1 = row[1]->stats.cycles;
        double speedup = ratio(c_l2, c_l1);
        sum.add(speedup);
        table.addRow({list[i], fmtCount(c_l2), fmtCount(c_l1),
                      fmtDouble(speedup, 3)});
    }
    addSummaryRow(opts, table, "geomean", sum.count(), list.size(),
                  {"", "", fmtDouble(sum.geomean(), 3)});
    printTable(opts, table);
    return finishBench(opts);
}
