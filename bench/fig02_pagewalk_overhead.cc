/**
 * @file
 * Figure 2: percent of execution time spent page walking under the THP
 * baseline, in three environments: native (no interference), native
 * with an SMT hardware thread competing for TLB resources, and
 * virtualized execution with two-dimensional page walks.
 *
 * The paper collected this from real-machine performance counters; here
 * the same three configurations run in the simulator and the fraction
 * is walker-active cycles over total cycles.  Because concurrent walks
 * each accrue latency, the raw fraction can exceed 1; it is capped, as
 * a hardware counter's busy-cycle semantics would.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

namespace {

double
walkPercent(const sim::SimStats &stats)
{
    double f = stats.walkCycleFraction();
    return 100.0 * (f > 1.0 ? 1.0 : f);
}

} // namespace

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig02_pagewalk_overhead", opts);
    printHeader("Figure 2",
                "page-walk overhead: % of execution time spent walking "
                "(THP baseline)",
                "native overhead is modest; SMT interference and "
                "virtualized 2-D walks increase it significantly");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        core::RunOptions native = makeRun(opts, wl, core::Design::Thp);
        core::RunOptions virt = native;
        virt.virtualized = true;
        cells.push_back(native);
        cells.push_back(makeSmtRun(opts, wl, core::Design::Thp));
        cells.push_back(virt);
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "native", "native-SMT", "virtualized"});
    Summary native_sum, smt_sum, virt_sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row = rowCells(results, 3 * i, 3);
        if (row.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        double n = walkPercent(row[0]->stats);
        double s = walkPercent(row[1]->stats);
        double v = walkPercent(row[2]->stats);
        native_sum.add(n);
        smt_sum.add(s);
        virt_sum.add(v);
        table.addRow({list[i], fmtPercent(n), fmtPercent(s),
                      fmtPercent(v)});
    }
    addSummaryRow(opts, table, "mean", native_sum.count(), list.size(),
                  {fmtPercent(native_sum.mean()),
                   fmtPercent(smt_sum.mean()),
                   fmtPercent(virt_sum.mean())});
    printTable(opts, table);
    return finishBench(opts);
}
