/**
 * @file
 * Temp-file names for the test binaries.
 */

#ifndef TPS_TESTS_TEMP_PATH_HH
#define TPS_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace tps::test {

/**
 * A path under the gtest temp dir unique to this process and the
 * running test; call it from inside a test.  ctest runs every case as
 * its own process, several at once under -j, and build trees share
 * one temp dir, so a fixed name (or a per-process counter) would be
 * shared between concurrent cases.
 */
inline std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + "/tps_" +
           std::to_string(::getpid()) + "_" + info->test_suite_name() +
           "_" + info->name() + "_" + name;
}

} // namespace tps::test

#endif // TPS_TESTS_TEMP_PATH_HH
