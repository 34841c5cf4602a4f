/**
 * @file
 * Figure 14: estimated speedup over the THP baseline with an SMT
 * hardware thread competing for core, cache and TLB resources -- the
 * same estimation pipeline as Figure 13 with every configuration run
 * under contention.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig14_speedup_smt", opts);
    printHeader("Figure 14",
                "estimated speedup over THP baseline, native (SMT)",
                "TPS 21.6% mean vs RMM 15.2% and CoLT 4.7%; TPS "
                "realizes 97.7% of the maximal ideal savings");

    printSpeedupFigure(opts, true);
    return finishBench(opts);
}
