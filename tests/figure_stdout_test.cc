/**
 * @file
 * Pins every figure bench's rendered stdout: each of the 14 binaries,
 * and `tps fig` on the same row, must print the bytes recorded in
 * tests/figure_stdout/<name>.txt for a small fixed run, so a change to
 * any table's layout, a row's order or a number shows here.  After an
 * intended change, regenerate a file with the command the test runs
 * (it prints it on a mismatch).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "temp_path.hh"

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Run @p cmd, returning its stdout; @p exitCode gets its status. */
std::string
stdoutOf(const std::string &cmd, int *exitCode)
{
    static int serial = 0;
    std::string out = tps::test::tempPath("figure_stdout_" +
                                          std::to_string(serial++));
    int status = std::system((cmd + " >" + out + " 2>/dev/null").c_str());
    *exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::string bytes = slurp(out);
    std::remove(out.c_str());
    return bytes;
}

TEST(FigureStdout, EveryBenchPrintsItsPinnedBytes)
{
    for (const std::string bin : {FIGURE_BINS}) {
        std::string name = bin.substr(bin.rfind('/') + 1);
        std::string flags =
            name == "fig15_free_coverage"
                ? " --phys-gb=1"
                : " --benchmarks=gups,mcf --scale=0.01 --phys-gb=1"
                  " --jobs=2";
        std::string want =
            slurp(std::string(FIGURE_STDOUT_DIR "/") + name + ".txt");
        ASSERT_FALSE(want.empty()) << "no pinned stdout for " << name;
        for (const std::string &cmd :
             {bin + flags, std::string(TPS_BIN " fig ") + name + flags}) {
            int code = -1;
            EXPECT_EQ(stdoutOf(cmd, &code), want) << cmd;
            EXPECT_EQ(code, 0) << cmd;
        }
    }
}

} // namespace
