/**
 * @file
 * Figure 18: how many pages of each size every benchmark actually uses
 * under TPS at the end of its run.  The paper's observation: every
 * workload uses nearly all available sizes, with higher counts at the
 * smaller sizes (the conservative promotion policy), and the small
 * total count is what lets TPS eliminate nearly all TLB misses.
 */

#include <set>

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig18_page_size_census", opts);
    printHeader("Figure 18",
                "per-benchmark page-size counts under TPS",
                "all workloads use many sizes; small total page counts "
                "are what give TPS its reach");

    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list)
        cells.push_back(makeRun(opts, wl, core::Design::Tps));
    CellResults results = runCells(opts, cells, true);

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

    for (size_t i = 0; i < list.size(); ++i) {
        if (!results[i]) {
            addHoleRow(table, list[i]);
            continue;
        }
        const Histogram &pages = results[i]->census.pageSizes;
        std::vector<std::string> row{list[i]};
        for (uint64_t pb : sizes) {
            uint64_t count = pages.at(pb);
            row.push_back(count == 0 ? "." : fmtCount(count));
        }
        row.push_back(fmtCount(pages.total()));
        table.addRow(std::move(row));
    }
    printTable(opts, table);
    return finishBench(opts);
}
