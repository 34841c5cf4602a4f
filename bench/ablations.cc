/**
 * @file
 * Ablations over TPS's design choices (beyond the paper's figures):
 *
 *  1. promotion threshold (Sec. III-B1's conservative..aggressive dial):
 *     L1 misses vs committed-memory bloat;
 *  2. alias-PTE mode (Sec. III-A1): pointer aliases' extra walk access
 *     vs full-copy aliases' PTE-update fan-out;
 *  3. TPS TLB capacity: how small the any-size L1 TLB can be;
 *  4. paging-structure caches: walk references per walk with and
 *     without them.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

namespace {

void
thresholdSweep(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- promotion threshold sweep (%s) --\n", wl.c_str());
    const std::vector<double> thresholds = {1.0, 0.75, 0.5, 0.25};
    std::vector<core::RunOptions> cells;
    for (double threshold : thresholds) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.tpsThreshold = threshold;
        cells.push_back(run);
    }
    CellResults results = runCells(opts, cells, true);

    Table table({"threshold", "L1 miss rate", "walk refs",
                 "committed bytes", "pages"});
    for (size_t i = 0; i < thresholds.size(); ++i) {
        std::string label = fmtPercent(100.0 * thresholds[i]);
        if (!results[i]) {
            addHoleRow(table, label);
            continue;
        }
        const CellResult &res = *results[i];
        table.addRow({label,
                      fmtPercent(percent(res.stats.l1TlbMisses,
                                         res.stats.accesses)),
                      fmtCount(res.stats.walkMemRefs),
                      fmtSize(res.census.mappedBytes),
                      fmtCount(res.census.pageSizes.total())});
    }
    printTable(opts, table);
}

void
aliasModes(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- alias-PTE mode (%s) --\n", wl.c_str());
    const std::vector<vm::AliasMode> modes = {vm::AliasMode::Pointer,
                                              vm::AliasMode::FullCopy};
    std::vector<core::RunOptions> cells;
    for (auto mode : modes) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.aliasMode = mode;
        cells.push_back(run);
    }
    CellResults results = runCells(opts, cells);

    Table table({"mode", "walk refs", "alias extra refs",
                 "PTE writes", "alias writes"});
    for (size_t i = 0; i < modes.size(); ++i) {
        std::string label = modes[i] == vm::AliasMode::Pointer
                                ? "pointer"
                                : "full-copy";
        if (!results[i]) {
            addHoleRow(table, label);
            continue;
        }
        const sim::SimStats &stats = results[i]->stats;
        table.addRow({label, fmtCount(stats.walkMemRefs),
                      fmtCount(stats.walker.aliasExtra),
                      fmtCount(stats.osWork.pteCycles /
                               os::oscost::kPteWrite),
                      fmtCount(stats.osWork.promotions)});
    }
    printTable(opts, table);
}

/** One TPS-TLB geometry of the capacity and organization sweeps. */
struct TpsTlb
{
    std::string name;
    unsigned entries;
    bool skewed;
};

void
tpsTlbSweep(const FigOptions &opts, const std::string &wl,
            const char *title, const char *column,
            const std::vector<TpsTlb> &variants)
{
    std::printf("-- TPS TLB %s (%s) --\n", title, wl.c_str());
    std::vector<core::RunOptions> cells;
    for (const TpsTlb &tlb : variants) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.tpsTlbEntries = tlb.entries;
        run.tpsTlbSkewed = tlb.skewed;
        cells.push_back(run);
    }
    CellResults results = runCells(opts, cells);

    Table table({column, "L1 miss rate", "walks"});
    for (size_t i = 0; i < variants.size(); ++i) {
        if (!results[i]) {
            addHoleRow(table, variants[i].name);
            continue;
        }
        const sim::SimStats &stats = results[i]->stats;
        table.addRow({variants[i].name,
                      fmtPercent(percent(stats.l1TlbMisses,
                                         stats.accesses)),
                      fmtCount(stats.tlbMisses)});
    }
    printTable(opts, table);
}

void
mmuCacheEffect(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- paging-structure caches (%s, base-4K paging) --\n",
                wl.c_str());
    std::vector<core::RunOptions> cells;
    for (bool disabled : {false, true}) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Base4k);
        run.noMmuCache = disabled;
        cells.push_back(run);
    }
    CellResults results = runCells(opts, cells);

    Table table({"MMU caches", "walks", "walk refs", "refs per walk"});
    for (size_t i = 0; i < cells.size(); ++i) {
        std::string label = cells[i].noMmuCache ? "off" : "on";
        if (!results[i]) {
            addHoleRow(table, label);
            continue;
        }
        const sim::SimStats &stats = results[i]->stats;
        table.addRow({label, fmtCount(stats.tlbMisses),
                      fmtCount(stats.walkMemRefs),
                      fmtDouble(ratio(stats.walkMemRefs, stats.tlbMisses),
                                2)});
    }
    printTable(opts, table);
}

} // namespace

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("ablations", opts);
    printHeader("Ablations",
                "TPS design-choice sweeps (threshold, alias mode, TLB "
                "capacity, MMU caches)",
                "design-space context beyond the published figures");

    std::string wl =
        opts.benchmarks.empty() ? "xsbench" : opts.benchmarks[0];
    std::string sparse_wl =
        opts.benchmarks.size() > 1 ? opts.benchmarks[1] : "gcc";

    thresholdSweep(opts, sparse_wl);
    aliasModes(opts, wl);
    tpsTlbSweep(opts, wl, "capacity", "entries",
                {{"8", 8, false}, {"16", 16, false}, {"32", 32, false},
                 {"64", 64, false}});
    tpsTlbSweep(opts, sparse_wl, "organization", "organization",
                {{"fully-assoc 32", 32, false},
                 {"skewed 32x4", 32, true},
                 {"skewed 64x4", 64, true}});
    mmuCacheEffect(opts, "gups");
    return finishBench(opts);
}
