/**
 * @file
 * CLI error-contract and sharded-sweep end-to-end tests for the
 * command-line surface: tps-analyze, tps-report, tps-merge and a real
 * figure bench (fig10).
 *
 * The contract under test: every tool, fed empty input, an unreadable
 * file or a non-manifest JSON document, exits non-zero with a single
 * actionable line on stderr -- never a crash, a zero exit, or silent
 * truncation.  The fig10 end-to-end test drives the tentpole through
 * the real binaries: shard a sweep with --shard=i/N, merge the
 * partials with tps-merge, and require the result to be byte-identical
 * to the unsharded run's canonical manifest.  The hole tests pin how a
 * bench renders cells that did not run: a timed-out or unowned cell
 * prints as a hole, never as a number, and a failed cell makes the
 * bench exit non-zero.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "temp_path.hh"

namespace {

using tps::obs::Json;
using tps::test::tempPath;

struct Cmd
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Run @p cmd through the shell, capturing exit code, stdout, stderr. */
Cmd
run(const std::string &cmd)
{
    static int serial = 0;
    std::string base = tempPath("cli_" + std::to_string(serial++));
    std::string outPath = base + ".out";
    std::string errPath = base + ".err";
    int status = std::system(
        (cmd + " >" + outPath + " 2>" + errPath).c_str());
    Cmd result;
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    result.out = slurp(outPath);
    result.err = slurp(errPath);
    std::remove(outPath.c_str());
    std::remove(errPath.c_str());
    return result;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
    ASSERT_TRUE(os.good()) << "cannot write " << path;
}

/** Exactly one line on stderr: the contract's "one actionable line". */
bool
oneLine(const std::string &err)
{
    size_t nl = err.find('\n');
    return nl != std::string::npos && nl == err.size() - 1;
}

void
expectFails(const std::string &cmd, const std::string &needle)
{
    Cmd result = run(cmd);
    EXPECT_NE(result.exitCode, 0) << "command succeeded: " << cmd;
    EXPECT_NE(result.err.find(needle), std::string::npos)
        << "stderr of '" << cmd << "' was: " << result.err;
    EXPECT_TRUE(oneLine(result.err))
        << "stderr of '" << cmd << "' is not one line: " << result.err;
}

TEST(CliContract, AnalyzeRejectsBadInvocations)
{
    expectFails(TPS_ANALYZE_BIN, "expected <summary|report|dump>");
    expectFails(std::string(TPS_ANALYZE_BIN) + " summary",
                "expected <summary|report|dump>");
    expectFails(std::string(TPS_ANALYZE_BIN) +
                    " summary /nonexistent/sweep.trace",
                "fatal");
    expectFails(std::string(TPS_ANALYZE_BIN) + " --bogus x y",
                "unknown option");

    // A valid JSON file is not an event-trace container.
    std::string json = tempPath("not_a_trace.json");
    writeText(json, "{\"format\":\"tps-run-manifest\"}");
    expectFails(std::string(TPS_ANALYZE_BIN) + " summary " + json,
                "fatal");

    // An empty (zero-cell) container is empty input, not a report.
    std::string empty = tempPath("empty.trace");
    tps::obs::writeTraceFile(empty, {});
    expectFails(std::string(TPS_ANALYZE_BIN) + " summary " + empty,
                "contains no cells");
    expectFails(std::string(TPS_ANALYZE_BIN) + " report " + empty,
                "contains no cells");
    std::remove(json.c_str());
    std::remove(empty.c_str());
}

TEST(CliContract, ReportRejectsBadInvocations)
{
    expectFails(TPS_REPORT_BIN, "no manifests given");
    expectFails(std::string(TPS_REPORT_BIN) + " /nonexistent/m.json",
                "cannot read manifest");
    expectFails(std::string(TPS_REPORT_BIN) + " --bogus",
                "unknown option");

    std::string foreign = tempPath("foreign.json");
    writeText(foreign, "{\"format\":\"something-else\"}");
    expectFails(std::string(TPS_REPORT_BIN) + " " + foreign,
                "not a tps-run-manifest");

    std::string truncated = tempPath("truncated.json");
    writeText(truncated, "{\"format\":\"tps-run-man");
    expectFails(std::string(TPS_REPORT_BIN) + " " + truncated,
                "cannot read manifest");
    std::remove(foreign.c_str());
    std::remove(truncated.c_str());
}

TEST(CliContract, MergeRejectsBadInvocations)
{
    expectFails(TPS_MERGE_BIN, "no input manifests");
    expectFails(std::string(TPS_MERGE_BIN) + " /nonexistent/s0.json",
                "fatal");
    expectFails(std::string(TPS_MERGE_BIN) + " --bogus",
                "unknown option");

    std::string foreign = tempPath("merge_foreign.json");
    writeText(foreign, "{\"format\":\"something-else\"}");
    expectFails(std::string(TPS_MERGE_BIN) + " " + foreign,
                "not a tps-run-manifest");

    std::string truncated = tempPath("merge_truncated.json");
    writeText(truncated, "{\"cells\": [");
    expectFails(std::string(TPS_MERGE_BIN) + " " + truncated, "fatal");

    // --watch on a directory with no heartbeats is empty input.
    std::string emptyDir = tempPath("no_heartbeats");
    ASSERT_EQ(std::system(("mkdir -p " + emptyDir).c_str()), 0);
    Cmd watch = run(std::string(TPS_MERGE_BIN) + " --watch=" +
                    emptyDir + " --once");
    EXPECT_NE(watch.exitCode, 0);
    std::remove(foreign.c_str());
    std::remove(truncated.c_str());
}

TEST(CliContract, BenchRejectsBadShardValues)
{
    for (const char *bad :
         {"2/2", "0/0", "x", "1", "1/2/3", "-1/2", "0/9999"}) {
        expectFails(std::string(FIG10_BIN) + " --shard=" + bad,
                    "bad --shard value");
    }
}

/** The table rows of a bench's stdout: the lines after a "---" rule. */
std::vector<std::string>
tableRows(const std::string &out)
{
    std::vector<std::string> rows;
    std::istringstream is(out);
    bool inTable = false;
    for (std::string line; std::getline(is, line);) {
        if (line.empty())
            inTable = false;
        else if (inTable)
            rows.push_back(line);
        else if (line.rfind("---", 0) == 0)
            inTable = true;
    }
    return rows;
}

TEST(CliContract, TimedOutCellPrintsHoleAndFails)
{
    Cmd result = run(std::string(FIG10_BIN) +
                     " --benchmarks=gups --scale=0.01 --phys-gb=1"
                     " --cell-timeout=0.000001");
    EXPECT_NE(result.exitCode, 0) << result.out;
    std::vector<std::string> rows = tableRows(result.out);
    ASSERT_FALSE(rows.empty()) << result.out;
    EXPECT_EQ(rows[0].rfind("gups", 0), 0u) << result.out;
    for (const std::string &row : rows) {
        EXPECT_NE(row.find("—"), std::string::npos) << row;
        EXPECT_EQ(row.find('%'), std::string::npos) << row;
    }
}

TEST(CliContract, ShardPrintsOnlyOwnedCells)
{
    std::string manifest = tempPath("fig10_hole_s0.json");
    Cmd result = run(std::string(FIG10_BIN) +
                     " --benchmarks=gups,mcf --scale=0.01 --phys-gb=1"
                     " --shard=0/2 --stats-json=" + manifest);
    ASSERT_EQ(result.exitCode, 0) << result.err;
    EXPECT_NE(result.out.find("partial (shard 0/2)"), std::string::npos)
        << result.out;

    // Which workloads have every cell owned by shard 0.
    Json partial = tps::obs::readJsonFile(manifest);
    std::remove(manifest.c_str());
    const Json &grid = partial.at("host").at("shard").at("grid");
    std::set<std::string> incomplete;
    for (size_t u = 0; u < grid.size(); ++u) {
        if (grid.at(u).at("shard").asUInt() != 0) {
            std::string label = grid.at(u).at("label").asString();
            incomplete.insert(label.substr(0, label.find('/')));
        }
    }
    ASSERT_FALSE(incomplete.empty());

    std::vector<std::string> rows = tableRows(result.out);
    ASSERT_EQ(rows.size(), 2u) << result.out;  // no mean row
    for (const std::string &row : rows) {
        std::string wl = row.substr(0, row.find(' '));
        if (!incomplete.count(wl))
            continue;
        EXPECT_NE(row.find("—"), std::string::npos) << row;
        EXPECT_EQ(row.find_first_of("0123456789%"), std::string::npos)
            << "shard 0 printed a number for a cell it does not own: "
            << row;
    }
}

/**
 * The tentpole, through the real binaries: fig10 over one workload,
 * run unsharded and as two shards with different job counts, merged
 * with tps-merge -- the merged manifest must be byte-identical to the
 * canonicalized unsharded manifest.  Also pins the --resume/--shard
 * interaction: resuming a full manifest under --shard keeps only the
 * shard's own cells.
 */
TEST(ShardedSweep, Fig10EndToEndMergeIsByteIdentical)
{
    std::string full = tempPath("fig10_full.json");
    std::string s0 = tempPath("fig10_s0.json");
    std::string s1 = tempPath("fig10_s1.json");
    std::string canon = tempPath("fig10_canon.json");
    std::string merged = tempPath("fig10_merged.json");
    std::string common = " --benchmarks=gups --scale=0.01 --phys-gb=1";

    Cmd fullRun = run(std::string(FIG10_BIN) + common +
                      " --jobs=2 --stats-json=" + full);
    ASSERT_EQ(fullRun.exitCode, 0) << fullRun.err;
    Cmd shard0 = run(std::string(FIG10_BIN) + common +
                     " --jobs=1 --shard=0/2 --stats-json=" + s0);
    ASSERT_EQ(shard0.exitCode, 0) << shard0.err;
    Cmd shard1 = run(std::string(FIG10_BIN) + common +
                     " --jobs=2 --shard=1/2 --stats-json=" + s1);
    ASSERT_EQ(shard1.exitCode, 0) << shard1.err;

    // Partial manifests carry provenance and only the owned cells.
    size_t totalCells = 0;
    for (unsigned i = 0; i < 2; ++i) {
        Json partial =
            tps::obs::readJsonFile(i == 0 ? s0 : s1);
        const Json &prov = partial.at("host").at("shard");
        EXPECT_EQ(prov.at("index").asUInt(), i);
        EXPECT_EQ(prov.at("count").asUInt(), 2u);
        const Json &grid = prov.at("grid");
        ASSERT_EQ(grid.size(), 4u);  // gups x {thp,tps,colt,rmm}
        std::set<std::string> owned;
        for (size_t u = 0; u < grid.size(); ++u) {
            if (grid.at(u).at("shard").asUInt() == i) {
                owned.insert(grid.at(u).at("label").asString() + "#" +
                             std::to_string(
                                 grid.at(u).at("seed").asUInt()));
            }
        }
        const Json &cells = partial.at("cells");
        EXPECT_EQ(cells.size(), owned.size());
        for (size_t c = 0; c < cells.size(); ++c) {
            const Json &cell = cells.at(c);
            std::string key =
                cell.at("options").at("workload").asString() + "/" +
                cell.at("options").at("design").asString() + "#" +
                std::to_string(cell.at("seed").asUInt());
            EXPECT_TRUE(owned.count(key))
                << "shard " << i << " recorded foreign cell " << key;
        }
        totalCells += cells.size();
    }
    EXPECT_EQ(totalCells, 4u);

    // Canonicalize the unsharded run, merge the shards, compare bytes.
    ASSERT_EQ(run(std::string(TPS_MERGE_BIN) + " " + full +
                  " --out=" + canon)
                  .exitCode,
              0);
    Cmd merge = run(std::string(TPS_MERGE_BIN) + " " + s0 + " " + s1 +
                    " --require-complete --out=" + merged);
    ASSERT_EQ(merge.exitCode, 0) << merge.err;
    EXPECT_EQ(slurp(merged), slurp(canon)) << "merge is not "
                                              "byte-identical to the "
                                              "unsharded run";

    // Merging one shard alone leaves attributed holes and fails
    // --require-complete.
    Cmd partial = run(std::string(TPS_MERGE_BIN) + " " + s0 +
                      " --require-complete --out=/dev/null");
    EXPECT_NE(partial.exitCode, 0);
    EXPECT_NE(partial.err.find("shard 1"), std::string::npos)
        << partial.err;

    // --resume under --shard: restoring from the FULL manifest keeps
    // only this shard's cells, so a resumed shard run equals a fresh
    // one byte for byte.
    std::string resumed = tempPath("fig10_resumed.json");
    ASSERT_EQ(std::system(("cp " + full + " " + resumed).c_str()), 0);
    Cmd resume = run(std::string(FIG10_BIN) + common +
                     " --jobs=2 --shard=0/2 --resume --stats-json=" +
                     resumed);
    ASSERT_EQ(resume.exitCode, 0) << resume.err;
    Json restored = tps::obs::readJsonFile(resumed);
    const Json *resumedFlag =
        restored.at("cells").at(0).find("resumed");
    EXPECT_TRUE(resumedFlag && resumedFlag->asBool());
    // Canonicalized (host keys stripped), the resumed shard manifest
    // is byte-identical to the freshly run one.
    std::string pureFresh = tempPath("fig10_s0_pure.json");
    std::string pureResumed = tempPath("fig10_resumed_pure.json");
    ASSERT_EQ(run(std::string(TPS_MERGE_BIN) + " " + s0 +
                  " --out=" + pureFresh)
                  .exitCode,
              0);
    ASSERT_EQ(run(std::string(TPS_MERGE_BIN) + " " + resumed +
                  " --out=" + pureResumed)
                  .exitCode,
              0);
    EXPECT_EQ(slurp(pureResumed), slurp(pureFresh));

    for (const std::string &p : {full, s0, s1, canon, merged, resumed,
                                 pureFresh, pureResumed})
        std::remove(p.c_str());
}

} // namespace
