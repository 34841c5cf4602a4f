/**
 * @file
 * Figure 11: percent of page-walk memory references eliminated by TPS,
 * TPS with eager paging, CoLT, and RMM relative to the
 * reservation-based-THP baseline.  RMM (itself eager) and eager TPS
 * have near-identical best-case reduction; demand TPS gives most of it
 * back without eager paging's allocation-latency cost.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig11_walk_refs_eliminated", opts);
    printHeader("Figure 11",
                "% of page-walk memory references eliminated "
                "(baseline: reservation-based THP)",
                "TPS ~98% mean; RMM and eager TPS near-identical best "
                "case; TPS beats RMM on gcc (range-TLB capacity)");

    const auto designs = {core::Design::Thp, core::Design::Tps,
                          core::Design::TpsEager, core::Design::Colt,
                          core::Design::Rmm};
    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list)
        for (core::Design d : designs)
            cells.push_back(makeRun(opts, wl, d));
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "thp walk refs", "tps", "tps-eager",
                 "colt", "rmm"});
    Summary tps_sum, eager_sum, colt_sum, rmm_sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row = rowCells(results, 5 * i, 5);
        if (row.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        uint64_t thp = row[0]->stats.walkMemRefs;
        uint64_t tps = row[1]->stats.walkMemRefs;
        uint64_t eager = row[2]->stats.walkMemRefs;
        uint64_t colt = row[3]->stats.walkMemRefs;
        uint64_t rmm = row[4]->stats.walkMemRefs;

        double e_tps = elimPercent(thp, tps);
        double e_eager = elimPercent(thp, eager);
        double e_colt = elimPercent(thp, colt);
        double e_rmm = elimPercent(thp, rmm);
        tps_sum.add(e_tps);
        eager_sum.add(e_eager);
        colt_sum.add(e_colt);
        rmm_sum.add(e_rmm);
        table.addRow({list[i], fmtCount(thp), fmtPercent(e_tps),
                      fmtPercent(e_eager), fmtPercent(e_colt),
                      fmtPercent(e_rmm)});
    }
    addSummaryRow(opts, table, "mean", tps_sum.count(), list.size(),
                  {"", fmtPercent(tps_sum.mean()),
                   fmtPercent(eager_sum.mean()),
                   fmtPercent(colt_sum.mean()),
                   fmtPercent(rmm_sum.mean())});
    printTable(opts, table);
    return finishBench(opts);
}
