/**
 * @file
 * CLI error-contract and sharded-sweep end-to-end tests for the
 * command-line surface: the `tps` front door (merge, watch, report,
 * analyze) and real figure benches (fig02, fig10, fig16, ablations).
 *
 * The contract under test: every subcommand, fed empty input, an
 * unreadable file, a non-manifest JSON document or an empty flag
 * value, exits non-zero with a single actionable line on stderr --
 * never a crash, a zero exit, or silent truncation.  The fig10
 * end-to-end test drives sharding through the real binaries: shard a
 * sweep with --shard=i/N, merge the partials with `tps merge`, and
 * require the result to be byte-identical to the unsharded run's
 * canonical manifest.  The hole tests pin how a bench renders cells
 * that did not run: a timed-out or unowned cell prints as a hole,
 * never as a number, and a failed cell makes the bench exit non-zero.
 * The label tests pin the one cell key: within a bench's planned grid
 * two cells share a label exactly when they share an identity, so
 * `tps report` and `tps analyze` can tell native, SMT and virtualized
 * runs apart.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/shard.hh"
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
    expectFails(TPS_BIN " analyze", "expected <summary|report|dump>");
    expectFails(std::string(TPS_BIN " analyze") + " summary",
                "expected <summary|report|dump>");
    expectFails(std::string(TPS_BIN " analyze") +
                    " summary /nonexistent/sweep.trace",
                "fatal");
    expectFails(std::string(TPS_BIN " analyze") + " --bogus x y",
                "unknown option");

    // A valid JSON file is not an event-trace container.
    std::string json = tempPath("not_a_trace.json");
    writeText(json, "{\"format\":\"tps-run-manifest\"}");
    expectFails(std::string(TPS_BIN " analyze") + " summary " + json,
                "fatal");

    // An empty (zero-cell) container is empty input, not a report.
    std::string empty = tempPath("empty.trace");
    tps::obs::writeTraceFile(empty, {});
    expectFails(std::string(TPS_BIN " analyze") + " summary " + empty,
                "contains no cells");
    expectFails(std::string(TPS_BIN " analyze") + " report " + empty,
                "contains no cells");
    std::remove(json.c_str());
    std::remove(empty.c_str());
}

TEST(CliContract, ReportRejectsBadInvocations)
{
    expectFails(TPS_BIN " report", "no manifests given");
    expectFails(std::string(TPS_BIN " report") + " /nonexistent/m.json",
                "cannot read manifest");
    expectFails(std::string(TPS_BIN " report") + " --bogus",
                "unknown option");

    std::string foreign = tempPath("foreign.json");
    writeText(foreign, "{\"format\":\"something-else\"}");
    expectFails(std::string(TPS_BIN " report") + " " + foreign,
                "not a tps-run-manifest");

    std::string truncated = tempPath("truncated.json");
    writeText(truncated, "{\"format\":\"tps-run-man");
    expectFails(std::string(TPS_BIN " report") + " " + truncated,
                "cannot read manifest");

    // A cell whose stats.mem section lacks its lifecycle.
    tps::obs::CellArtifact art;
    art.options.workload = "gups";
    art.stats.mem.enabled = true;
    tps::obs::ManifestInfo info;
    info.bench = "no_lifecycle";
    Json manifest = tps::obs::manifestJson(info, {art});
    Json cell = manifest.at("cells").at(0);
    Json mem = Json::object();
    for (const auto &[key, value] : cell.at("stats").at("mem").members())
        if (key != "lifecycle")
            mem[key] = value;
    cell["stats"]["mem"] = mem;
    manifest["cells"] = Json::array();
    manifest["cells"].push(cell);
    std::string no_lifecycle = tempPath("no_lifecycle.json");
    tps::obs::writeJsonFile(no_lifecycle, manifest);
    expectFails(std::string(TPS_BIN " report") + " " + no_lifecycle,
                "fatal: stats.mem member 'lifecycle'");
    std::remove(foreign.c_str());
    std::remove(truncated.c_str());
    std::remove(no_lifecycle.c_str());
}

TEST(CliContract, MergeRejectsBadInvocations)
{
    expectFails(TPS_BIN " merge", "no input manifests");
    expectFails(std::string(TPS_BIN " merge") + " /nonexistent/s0.json",
                "fatal");
    expectFails(std::string(TPS_BIN " merge") + " --bogus",
                "unknown option");

    std::string foreign = tempPath("merge_foreign.json");
    writeText(foreign, "{\"format\":\"something-else\"}");
    expectFails(std::string(TPS_BIN " merge") + " " + foreign,
                "not a tps-run-manifest");

    std::string truncated = tempPath("merge_truncated.json");
    writeText(truncated, "{\"cells\": [");
    expectFails(std::string(TPS_BIN " merge") + " " + truncated, "fatal");

    // --watch on a directory with no heartbeats is empty input.
    std::string emptyDir = tempPath("no_heartbeats");
    ASSERT_EQ(std::system(("mkdir -p " + emptyDir).c_str()), 0);
    Cmd watch = run(std::string(TPS_BIN " watch ") +
                    emptyDir + " --once");
    EXPECT_NE(watch.exitCode, 0);
    std::remove(foreign.c_str());
    std::remove(truncated.c_str());
}

TEST(CliContract, EmptyFlagValuesAreRejected)
{
    // An unset shell variable ("--manifest=$M") must fail loudly, not
    // silently skip the reconciliation or print to stdout instead.
    const std::string tps = TPS_BIN;
    for (const std::string &cmd :
         {tps + " analyze report x.trace --manifest=",
          tps + " analyze report x.trace --cell=",
          tps + " analyze report x.trace --top=",
          tps + " report m.json --csv=", tps + " report m.json --md=",
          tps + " report m.json --baseline=", tps + " merge m.json --out=",
          tps + " watch dir --interval="}) {
        expectFails(cmd, "needs a value");
    }
    // The benches' list flag: an empty list would silently run the
    // whole suite.
    for (const char *list : {"", ","}) {
        expectFails(std::string(FIG10_BIN) + " --benchmarks=" + list,
                    "--benchmarks needs a value");
    }
    // ablations reads two names; a third would be dropped silently.
    expectFails(std::string(ABLATIONS_BIN) + " --benchmarks=gups,mcf,gcc",
                "at most two --benchmarks names");
    expectFails(tps + " analyze report x.trace --seed=1",
                "unknown option");
    // The Chrome sweep trace is gone; its flag is an unknown option.
    expectFails(std::string(FIG10_BIN) + " --trace=x", "unknown option");
    expectFails(tps, "expected a subcommand");
    expectFails(tps + " frobnicate", "expected a subcommand");
    expectFails(tps + " fig nosuch",
                "unknown figure 'nosuch' (one of: fig02_pagewalk_overhead, ");
}

TEST(CliContract, NonFiniteIntervalIsRejected)
{
    // strtod takes nan, inf and overflow (as inf); such an interval
    // made `tps watch` refresh without sleeping.  --once keeps a
    // regression from spinning here.
    for (const char *bad :
         {"nan", "inf", "1e999", "1e300", "0", "-1", "2x", " 2"}) {
        expectFails(std::string(TPS_BIN " watch dir --once --interval=") +
                        "'" + bad + "'",
                    "bad --interval value");
    }
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

/** The options.scale every cell of a fig16 run recorded, timed out
 *  at once so the cells cost nothing. */
std::set<double>
fig16Scales(const std::string &flags)
{
    std::string manifest = tempPath("fig16_scale.json");
    Cmd result = run(std::string(FIG16_BIN) +
                     " --benchmarks=gups --cell-timeout=0.001" + flags +
                     " --stats-json=" + manifest);
    EXPECT_NE(result.exitCode, 0) << result.err;
    Json m = tps::obs::readJsonFile(manifest);
    std::remove(manifest.c_str());
    std::set<double> scales;
    for (size_t c = 0; c < m.at("cells").size(); ++c) {
        const Json &cell = m.at("cells").at(c);
        EXPECT_EQ(cell.at("status").asString(), "timeout");
        scales.insert(cell.at("options").at("scale").asDouble());
    }
    return scales;
}

TEST(CliContract, BenchDefaultScaleYieldsToTheFlag)
{
    // fig16 defaults to quarter scale, and an explicit --scale=1 wins.
    EXPECT_EQ(fig16Scales(""), std::set<double>{0.25});
    EXPECT_EQ(fig16Scales(" --scale=1"), std::set<double>{1.0});
}

TEST(CliContract, AblationsRunsEachCellIdentityOnce)
{
    // ablations lists its default TPS cell under several tables (the
    // 1.0 threshold and the 32-entry fully-associative TLB on the
    // sparse workload, the pointer alias mode and the 32-entry TLB on
    // the main one); each identity runs and is recorded once.
    std::string manifest = tempPath("ablations_once.json");
    Cmd result = run(std::string(ABLATIONS_BIN) +
                     " --benchmarks=gups,mcf --scale=0.02 --phys-gb=1"
                     " --stats-json=" + manifest);
    ASSERT_EQ(result.exitCode, 0) << result.err;
    Json doc = tps::obs::readJsonFile(manifest);
    std::remove(manifest.c_str());
    const Json &cells = doc.at("cells");
    std::set<std::string> identities;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Json &cell = cells.at(i);
        identities.insert(tps::obs::cellIdentityFromJson(
            cell.at("options"), cell.at("seed").asUInt()));
    }
    EXPECT_EQ(cells.size(), 13u);
    EXPECT_EQ(identities.size(), 13u);
}

TEST(CliContract, ResumeCountsRestoredCellsOfThisGrid)
{
    // The resume line counts this grid's cells found in the manifest,
    // not the cells the file holds: another seed is another cell, so a
    // manifest whose seeds were edited restores none.
    std::string manifest = tempPath("fig10_resume_count.json");
    std::string bench = std::string(FIG10_BIN) +
                        " --benchmarks=gups --scale=0.01 --phys-gb=1"
                        " --stats-json=" + manifest;
    ASSERT_EQ(run(bench).exitCode, 0);
    Cmd same = run(bench + " --resume");
    ASSERT_EQ(same.exitCode, 0) << same.err;
    EXPECT_NE(same.err.find("resuming: 4 of 4 cells restored from " +
                            manifest),
              std::string::npos)
        << same.err;

    // Drop the last digit of every seed.
    std::string text = slurp(manifest);
    std::ofstream(manifest) << std::regex_replace(
        text, std::regex(R"(("seed": [0-9]+)[0-9])"), "$1");
    Cmd edited = run(bench + " --resume");
    std::remove(manifest.c_str());
    ASSERT_EQ(edited.exitCode, 0) << edited.err;
    EXPECT_NE(edited.err.find("resuming: 0 of 4 cells restored"),
              std::string::npos)
        << edited.err;
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
    ASSERT_EQ(run(std::string(TPS_BIN " merge") + " " + full +
                  " --out=" + canon)
                  .exitCode,
              0);
    Cmd merge = run(std::string(TPS_BIN " merge") + " " + s0 + " " + s1 +
                    " --require-complete --out=" + merged);
    ASSERT_EQ(merge.exitCode, 0) << merge.err;
    EXPECT_EQ(slurp(merged), slurp(canon)) << "merge is not "
                                              "byte-identical to the "
                                              "unsharded run";

    // Merging one shard alone leaves attributed holes and fails
    // --require-complete.
    Cmd partial = run(std::string(TPS_BIN " merge") + " " + s0 +
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
    ASSERT_EQ(run(std::string(TPS_BIN " merge") + " " + s0 +
                  " --out=" + pureFresh)
                  .exitCode,
              0);
    ASSERT_EQ(run(std::string(TPS_BIN " merge") + " " + resumed +
                  " --out=" + pureResumed)
                  .exitCode,
              0);
    EXPECT_EQ(slurp(pureResumed), slurp(pureFresh));

    for (const std::string &p : {full, s0, s1, canon, merged, resumed,
                                 pureFresh, pureResumed})
        std::remove(p.c_str());
}

/**
 * The planned grid of @p bench, from a --shard=0/4096 partial
 * manifest: every shard plans the full grid, and shard 0 of 4096 owns
 * few or no cells, so this takes seconds.
 */
Json
plannedGrid(const std::string &bench)
{
    std::string manifest = tempPath("grid.json");
    Cmd result = run(bench + " --scale=0.02 --phys-gb=1 --shard=0/4096"
                     " --stats-json=" + manifest);
    EXPECT_EQ(result.exitCode, 0) << result.err;
    Json partial = tps::obs::readJsonFile(manifest);
    std::remove(manifest.c_str());
    return partial.at("host").at("shard").at("grid");
}

TEST(CellLabels, OneLabelPerCellIdentity)
{
    // fig02 runs every workload native, with SMT and virtualized;
    // ablations varies threshold, alias mode, TLB geometry and MMU
    // caches.  The key is: same label exactly when same identity.
    for (const char *bench : {FIG02_BIN, ABLATIONS_BIN}) {
        Json grid = plannedGrid(bench);
        ASSERT_GT(grid.size(), 1u) << bench;
        std::map<std::string, uint64_t> idOf;
        std::map<uint64_t, std::string> labelOf;
        for (size_t u = 0; u < grid.size(); ++u) {
            std::string label = grid.at(u).at("label").asString();
            uint64_t id = grid.at(u).at("id").asUInt();
            auto [l, newLabel] = idOf.emplace(label, id);
            auto [i, newId] = labelOf.emplace(id, label);
            EXPECT_EQ(l->second, id) << bench << ": " << label
                                     << " names two different cells";
            EXPECT_EQ(i->second, label) << bench << ": one cell has "
                                        << "labels " << i->second
                                        << " and " << label;
        }
        EXPECT_EQ(idOf.size(), labelOf.size()) << bench;
    }
}

/** The Markdown table rows of `tps report` output whose first cell is
 *  @p row exactly. */
size_t
reportRows(const std::string &md, const std::string &row)
{
    size_t n = 0;
    for (size_t pos = md.find("\n| " + row + " |"); pos != std::string::npos;
         pos = md.find("\n| " + row + " |", pos + 1))
        ++n;
    return n;
}

TEST(CellLabels, ToolsSeeVariantCells)
{
    std::string manifest = tempPath("fig02_variants.json");
    std::string trace = tempPath("fig02_variants.trace");
    Cmd fig02 = run(std::string(FIG02_BIN) +
                    " --benchmarks=gups,mcf --scale=0.02 --phys-gb=1"
                    " --stats-json=" + manifest + " --event-trace=" + trace);
    ASSERT_EQ(fig02.exitCode, 0) << fig02.err;

    // Native, SMT and virtualized THP are three rows, not one.
    Cmd report = run(std::string(TPS_BIN " report ") + manifest);
    ASSERT_EQ(report.exitCode, 0) << report.err;
    EXPECT_NE(report.err.find("6 cells, 0 holes"), std::string::npos)
        << report.err;
    EXPECT_NE(report.out.find("the workload x design grid is complete"),
              std::string::npos);
    for (const char *wl : {"gups", "mcf"}) {
        for (const char *variant : {"", "+smt", "+virt"}) {
            // One row in each of the MPKI and speedup tables.
            EXPECT_EQ(reportRows(report.out, std::string(wl) + variant),
                      2u)
                << wl << variant << "\n" << report.out;
        }
    }

    // The SMT cell is selectable by its label alone and reconciles
    // with its own manifest cell.
    Cmd analyze = run(std::string(TPS_BIN " analyze report ") + trace +
                      " --cell=gups/thp+smt --manifest=" + manifest);
    ASSERT_EQ(analyze.exitCode, 0) << analyze.err;
    EXPECT_NE(analyze.out.find("== gups/thp+smt (seed"), std::string::npos)
        << analyze.out;
    EXPECT_NE(analyze.out.find("(matches manifest mmu.l1.misses)"),
              std::string::npos)
        << analyze.out;
    std::remove(manifest.c_str());
    std::remove(trace.c_str());

    // ablations: every one of its 12 distinct cells is reported (with
    // one workload, the 1.0 threshold, the pointer alias mode and the
    // two 32-entry TLBs are one gcc/tps cell).
    std::string ablations = tempPath("ablations_variants.json");
    Cmd abl = run(std::string(ABLATIONS_BIN) +
                  " --benchmarks=gcc --scale=0.02 --phys-gb=1"
                  " --stats-json=" + ablations);
    ASSERT_EQ(abl.exitCode, 0) << abl.err;
    Cmd ablReport = run(std::string(TPS_BIN " report ") + ablations);
    ASSERT_EQ(ablReport.exitCode, 0) << ablReport.err;
    EXPECT_EQ(ablReport.err.rfind("12 cells, ", 0), 0u) << ablReport.err;
    for (const char *row : {"gcc", "gcc+thr0.75", "gcc+thr0.5",
                            "gcc+thr0.25", "gcc+full-copy", "gcc+tlb8",
                            "gcc+tlb16", "gcc+tlb64", "gcc+skewed",
                            "gcc+skewed+tlb64", "gups", "gups+no-pwc"}) {
        EXPECT_EQ(reportRows(ablReport.out, row), 2u)
            << row << "\n" << ablReport.out;
    }
    std::remove(ablations.c_str());
}

} // namespace
