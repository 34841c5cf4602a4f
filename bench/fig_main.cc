/**
 * @file
 * The entry point every figure binary is built from: TPS_FIGURE names
 * its row of the figure table (bench/figures.cc).
 */

#include "fig_common.hh"

int
main(int argc, char **argv)
{
    return tps::bench::runFigure(TPS_FIGURE, argc, argv);
}
