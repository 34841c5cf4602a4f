/**
 * @file
 * Figure 10: percent of L1 DTLB misses eliminated by TPS, CoLT and RMM
 * relative to the reservation-based-THP baseline, lightly loaded
 * memory, no compaction during the run.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig10_l1_misses_eliminated", opts);
    printHeader("Figure 10",
                "% of L1 DTLB misses eliminated (baseline: "
                "reservation-based THP)",
                "TPS 98.0% mean, CoLT 36.6%, RMM ~0% (range TLB sits "
                "at L2); CoLT minimal on GUPS");

    const auto designs = {core::Design::Thp, core::Design::Tps,
                          core::Design::Colt, core::Design::Rmm};
    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list)
        for (core::Design d : designs)
            cells.push_back(makeRun(opts, wl, d));
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "thp misses", "tps", "colt", "rmm"});
    Summary tps_sum, colt_sum, rmm_sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row = rowCells(results, 4 * i, 4);
        if (row.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        uint64_t thp = row[0]->stats.l1TlbMisses;
        uint64_t tps = row[1]->stats.l1TlbMisses;
        uint64_t colt = row[2]->stats.l1TlbMisses;
        uint64_t rmm = row[3]->stats.l1TlbMisses;

        double e_tps = elimPercent(thp, tps);
        double e_colt = elimPercent(thp, colt);
        double e_rmm = elimPercent(thp, rmm);
        tps_sum.add(e_tps);
        colt_sum.add(e_colt);
        rmm_sum.add(e_rmm);
        table.addRow({list[i], fmtCount(thp), fmtPercent(e_tps),
                      fmtPercent(e_colt), fmtPercent(e_rmm)});
    }
    addSummaryRow(opts, table, "mean", tps_sum.count(), list.size(),
                  {"", fmtPercent(tps_sum.mean()),
                   fmtPercent(colt_sum.mean()),
                   fmtPercent(rmm_sum.mean())});
    printTable(opts, table);
    return finishBench(opts);
}
