/**
 * @file
 * Figure 15: after aging physical memory into a heavily loaded,
 * fragmented state, what fraction of free memory could be used if only
 * a single page size existed, for sizes 4 KB through 16 MB.  The
 * paper's takeaway: even under heavy fragmentation, substantial
 * intermediate contiguity exists for TPS while little is usable by the
 * conventional 2 MB+ sizes exclusively.
 */

#include "fig_common.hh"

#include "obs/mem_telemetry.hh"
#include "os/fragmenter.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig15_free_coverage", opts);
    printHeader("Figure 15",
                "% of free memory coverable by each single page size "
                "on a fragmented host",
                "100% at 4 KB declining smoothly; significant "
                "intermediate contiguity, little at 2 MB and beyond");

    os::PhysMemory pm(opts.run.physBytes);
    os::Fragmenter fragmenter(pm, os::FragmenterConfig{});
    fragmenter.run();

    const os::BuddyAllocator &buddy = pm.buddy();
    std::printf("memory: %s total, %s free (%.1f%%), "
                "fragmentation index %.3f\n\n",
                fmtSize(pm.totalBytes()).c_str(),
                fmtSize(pm.freeBytes()).c_str(),
                percent(buddy.freeFrames(), buddy.totalFrames()),
                buddy.fragmentationIndex());

    Table table({"page size", "coverage of free memory"});
    for (unsigned order = 0; order <= 12; ++order) {
        uint64_t bytes = vm::kBasePageBytes << order;
        table.addRow({fmtSize(bytes),
                      fmtPercent(100.0 * buddy.coverageAt(order))});
    }
    printTable(opts, table);

    Table lists({"order", "block size", "free blocks"});
    auto counts = buddy.freeListCounts();
    for (unsigned order = 0; order < counts.size(); ++order) {
        if (counts[order] == 0)
            continue;
        lists.addRow({std::to_string(order),
                      fmtSize(vm::kBasePageBytes << order),
                      fmtCount(counts[order])});
    }
    std::printf("buddyinfo-style free lists:\n");
    printTable(opts, lists);

    if (opts.run.memTelemetry) {
        // Per-size-class extfrag: 0 means a block of that size is
        // available (or memory is merely short); near 1 means the free
        // memory exists but is shattered below that size.
        Table frag({"page size", "extfrag index"});
        for (unsigned order = 0; order <= 12; ++order) {
            uint64_t bytes = vm::kBasePageBytes << order;
            frag.addRow({fmtSize(bytes),
                         fmtDouble(obs::extFragIndex(counts, order), 3)});
        }
        std::printf("extfrag index by page-size class:\n");
        printTable(opts, frag);
        std::printf("contiguity score: %.3f\n\n",
                    obs::contiguityScore(counts));
    }
    return finishBench(opts);
}
