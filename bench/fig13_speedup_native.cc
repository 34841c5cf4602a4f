/**
 * @file
 * Figure 13: estimated native (no SMT) speedup of TPS, RMM and CoLT
 * over the reservation-based-THP baseline, via the paper's
 * T = T_IDEAL + T_L1DTLBM + T_PW decomposition with the savable-PWC
 * calibration of Figure 12.
 */

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("fig13_speedup_native", opts);
    printHeader("Figure 13",
                "estimated speedup over THP baseline, native (no SMT)",
                "TPS 15.7% mean vs RMM 9.4% and CoLT 2.7%; TPS realizes "
                "99.2% of the maximal ideal savings");

    printSpeedupFigure(opts, false);
    return finishBench(opts);
}
