/**
 * @file
 * Figure 16: percent of L1 DTLB misses eliminated by TPS vs the THP
 * baseline when initial physical memory is heavily fragmented (the
 * Figure 15 state), no compaction during the run.  Workloads are
 * scaled to fit the fragmented machine's free memory.  The paper's
 * result: GUPS sees minimal benefit (random access needs huge pages),
 * while workloads with reference locality keep most of theirs.
 */

#include "fig_common.hh"

#include "obs/mem_telemetry.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    // Default to quarter-size footprints so everything fits the ~30%
    // of memory the fragmented host has free; --scale overrides it.
    FigOptions defaults;
    defaults.run.scale = 0.25;
    FigOptions opts = parseArgs(argc, argv, defaults);
    initBench("fig16_fragmented", opts);
    printHeader("Figure 16",
                "% of L1 DTLB misses eliminated under heavy "
                "fragmentation (baseline: THP)",
                "GUPS minimal; XSBench/Graph500-class locality retains "
                "significant reduction");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        core::RunOptions thp_run = makeRun(opts, wl, core::Design::Thp);
        thp_run.fragmented = true;
        core::RunOptions tps_run = makeRun(opts, wl, core::Design::Tps);
        tps_run.fragmented = true;
        cells.push_back(thp_run);
        cells.push_back(tps_run);
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "thp misses", "tps misses", "eliminated"});
    Summary sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row = rowCells(results, 2 * i, 2);
        if (row.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        uint64_t thp = row[0]->stats.l1TlbMisses;
        uint64_t tps = row[1]->stats.l1TlbMisses;
        double elim = elimPercent(thp, tps);
        sum.add(elim);
        table.addRow({list[i], fmtCount(thp), fmtCount(tps),
                      fmtPercent(elim)});
    }
    addSummaryRow(opts, table, "mean", sum.count(), list.size(),
                  {"", "", fmtPercent(sum.mean())});
    printTable(opts, table);

    if (opts.run.memTelemetry) {
        // End-of-run memory state per cell: how fragmented the 2 MB
        // class ended up, overall contiguity, and the largest page the
        // design actually mapped.  This is the fragmentation story
        // behind the elimination numbers above.
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
            mem.addRow(
                {cells[i].workload, core::designName(cells[i].design),
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
    return finishBench(opts);
}
