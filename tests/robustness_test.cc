/**
 * @file
 * Sweep-hardening tests: the SimError taxonomy, fault-isolated guarded
 * sweeps (failed cells recorded, good cells bit-identical to solo
 * runs), per-cell timeouts, retry accounting, the JSON parser's
 * round-trip guarantees, and the --resume path's golden property --
 * a resumed sweep's pure manifest is byte-identical to an
 * uninterrupted one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/json.hh"
#include "obs/resume.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_bindings.hh"
#include "util/rng.hh"
#include "util/sim_error.hh"

namespace tps {
namespace {

core::RunOptions
smallRun(const std::string &workload = "gups",
         core::Design design = core::Design::Thp)
{
    core::RunOptions opts;
    opts.workload = workload;
    opts.design = design;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    return opts;
}

/** A scratch path under the test's working directory. */
std::string
scratchPath(const std::string &name)
{
    return "robustness_test_" + name + ".json";
}

/** A copy of object @p j without the member at dotted @p path. */
obs::Json
without(const obs::Json &j, const std::string &path)
{
    size_t dot = path.find('.');
    std::string head = path.substr(0, dot);
    obs::Json out = obs::Json::object();
    for (const auto &[key, value] : j.members()) {
        if (key != head)
            out[key] = value;
        else if (dot != std::string::npos)
            out[key] = without(value, path.substr(dot + 1));
    }
    return out;
}

/** The dotted paths of every non-object leaf below @p j. */
void
leafPaths(const obs::Json &j, const std::string &prefix,
          std::vector<std::string> &out)
{
    for (const auto &[key, value] : j.members()) {
        std::string path = prefix.empty() ? key : prefix + "." + key;
        if (value.kind() == obs::Json::Kind::Object)
            leafPaths(value, path, out);
        else
            out.push_back(path);
    }
}

/**
 * A stat tree with a distinct non-zero value in every counter and a
 * two-sample epoch series, as SimStats::toJson() wrote it before the
 * stat table existed: the derived values match their counters, and the
 * keys are in the writer's order.
 */
const char *const kPinnedStatTree =
    R"({"engine":{"accesses":1035,"cycles":1049,"faults":1098,"instructio)"
    R"(ns":1042,"l1TlbMisses":1056,"l2TlbHits":1063,"mmapCalls":1399,"mpk)"
    R"(i":1013.4357005758158,"munmapCalls":1406,"stlbPenaltyCycles":1091,)"
    R"("systemTimeFraction":0.8385657125269314,"walkCycleFraction":1.0333)"
    R"(651096282173,"walkCycles":1084,"walkMemRefs":1077,"walks":1070,"wa)"
    R"(rmup":{"accesses":1007,"cycles":1014,"faults":1028,"osCycles":1021)"
    R"(}},"memsys":{"accesses":1252,"dramAccesses":1273,"l1Hits":1259,"ll)"
    R"(cHits":1266},"mmu":{"accesses":1105,"ad":{"pteWrites":1168,"vector)"
    R"(Stores":1175},"faults":1154,"l1":{"hits":1112,"misses":1119},"l2":)"
    R"({"hits":1126},"stlb":{"penaltyCycles":1189},"walk":{"cycles":1182,)"
    R"("faultMemRefs":1147,"memRefs":1140,"nestedRefs":1196},"walker":{"a)"
    R"(ccesses":1217,"aliasExtra":1224,"faults":1210,"nestedAccesses":123)"
    R"(1,"nestedTlb":{"hits":1238,"misses":1245},"walks":1203},"walks":11)"
    R"(33,"writeProtFaults":1161},"os":{"buddy":{"allocs":1343,"failedAll)"
    R"(ocs":1371,"frees":1350,"merges":1364,"splits":1357},"compaction":{)"
    R"("mergedPages":1392,"migratedBlocks":1378,"migratedFrames":1385},"w)"
    R"(ork":{"allocCycles":1287,"faultCycles":1280,"faults":1315,"promoti)"
    R"(ons":1322,"pteCycles":1294,"reservationsCreated":1329,"reservation)"
    R"(sMissed":1336,"shootdownCycles":1308,"totalCycles":6470,"zeroCycle)"
    R"(s":1301}},"epochs":{"interval":1413,"samples":[{"accesses":1420,"i)"
    R"(nstructions":1427,"cycles":1434,"l1TlbMisses":1441,"l2TlbHits":144)"
    R"(8,"walks":1455,"walkMemRefs":1462,"walkCycles":1469,"faults":1476,)"
    R"("osCycles":1483,"mpki":1009.8107918710582,"walkCycleFraction":1.02)"
    R"(44072524407253},{"accesses":1490,"instructions":1497,"cycles":1504)"
    R"(,"l1TlbMisses":1511,"l2TlbHits":1518,"walks":1525,"walkMemRefs":15)"
    R"(32,"walkCycles":1539,"faults":1546,"osCycles":1553,"mpki":1009.352)"
    R"(0374081496,"walkCycleFraction":1.0232712765957446}]}})";

TEST(SimErrorTaxonomy, KindNamesAreStable)
{
    EXPECT_STREQ(errorKindName(ErrorKind::OutOfMemory),
                 "out-of-memory");
    EXPECT_STREQ(errorKindName(ErrorKind::InvalidArgument),
                 "invalid-argument");
    EXPECT_STREQ(errorKindName(ErrorKind::InvalidAccess),
                 "invalid-access");
    EXPECT_STREQ(errorKindName(ErrorKind::CorruptState),
                 "corrupt-state");
    EXPECT_STREQ(errorKindName(ErrorKind::Timeout), "timeout");
}

TEST(SimErrorTaxonomy, CellStatusNamesAreStable)
{
    EXPECT_STREQ(core::cellStatusName(core::CellStatus::Ok), "ok");
    EXPECT_STREQ(core::cellStatusName(core::CellStatus::Failed),
                 "failed");
    EXPECT_STREQ(core::cellStatusName(core::CellStatus::Timeout),
                 "timeout");
    EXPECT_STREQ(core::cellStatusName(core::CellStatus::Resumed),
                 "resumed");
}

TEST(GuardedSweep, FailingCellIsIsolated)
{
    // Middle cell names a workload that does not exist; the sweep must
    // survive it and the good cells must match solo runs bit for bit.
    std::vector<core::RunOptions> cells = {
        smallRun("gups", core::Design::Thp),
        smallRun("nonexistent-workload"),
        smallRun("gups", core::Design::Tps),
    };
    core::ExperimentRunner runner(2);
    std::vector<core::CellOutcome> out = runner.runGuarded(cells);
    ASSERT_EQ(out.size(), 3u);

    EXPECT_EQ(out[0].status, core::CellStatus::Ok);
    EXPECT_EQ(out[2].status, core::CellStatus::Ok);
    EXPECT_EQ(out[1].status, core::CellStatus::Failed);
    EXPECT_EQ(out[1].errorKind, "invalid-argument");
    EXPECT_NE(out[1].error.find("unknown workload"), std::string::npos);
    EXPECT_EQ(out[1].stats.accesses, 0u);

    sim::SimStats solo0 = core::runExperiment(cells[0]);
    sim::SimStats solo2 = core::runExperiment(cells[2]);
    EXPECT_EQ(out[0].stats.toJson().dump(), solo0.toJson().dump());
    EXPECT_EQ(out[2].stats.toJson().dump(), solo2.toJson().dump());
}

TEST(GuardedSweep, RetriesReRunDeterministicFailures)
{
    core::SweepPolicy policy;
    policy.retries = 2;
    core::ExperimentRunner runner(1);
    std::vector<core::CellOutcome> out =
        runner.runGuarded({smallRun("nonexistent-workload")}, policy);
    ASSERT_EQ(out.size(), 1u);
    // Deterministic failure: every attempt fails the same way.
    EXPECT_EQ(out[0].status, core::CellStatus::Failed);
    EXPECT_EQ(out[0].attempts, 3u);
}

TEST(GuardedSweep, SuccessUsesOneAttempt)
{
    core::SweepPolicy policy;
    policy.retries = 5;
    core::ExperimentRunner runner(1);
    std::vector<core::CellOutcome> out =
        runner.runGuarded({smallRun()}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, core::CellStatus::Ok);
    EXPECT_EQ(out[0].attempts, 1u);
}

TEST(GuardedSweep, TimeoutBecomesTimeoutStatus)
{
    core::RunOptions opts = smallRun();
    opts.cellTimeoutSeconds = 1e-9;
    core::ExperimentRunner runner(1);
    std::vector<core::CellOutcome> out = runner.runGuarded({opts});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, core::CellStatus::Timeout);
    EXPECT_EQ(out[0].errorKind, "timeout");
    EXPECT_NE(out[0].error.find("wall-clock"), std::string::npos);
}

TEST(JsonParser, RoundTripsManifestShapedTrees)
{
    obs::Json j = obs::Json::object();
    j["uint"] = uint64_t(18446744073709551615ull);
    j["int"] = int64_t(-42);
    j["double"] = 0.1;
    j["short"] = 2.5;
    j["bool"] = true;
    j["null"] = obs::Json();
    j["string"] = std::string("he \"quoted\" \\ path\n");
    obs::Json arr = obs::Json::array();
    arr.push(obs::Json(uint64_t(1)));
    arr.push(obs::Json("two"));
    j["arr"] = std::move(arr);
    j["nested"]["a"]["b"] = uint64_t(7);

    for (int indent : {-1, 2}) {
        std::string text = j.dump(indent);
        obs::Json parsed = obs::parseJson(text);
        // Identical bytes and identical kinds (UInt stays UInt, ...).
        EXPECT_EQ(parsed.dump(indent), text);
        EXPECT_EQ(parsed.at("uint").kind(), obs::Json::Kind::UInt);
        EXPECT_EQ(parsed.at("int").kind(), obs::Json::Kind::Int);
        EXPECT_EQ(parsed.at("double").kind(), obs::Json::Kind::Double);
        EXPECT_EQ(parsed.at("string").asString(),
                  j.at("string").asString());
    }
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"\\x\"",
          "01", "1.2.3", "{\"a\":1}trailing", "\"unterminated",
          "[\"\x01\"]"}) {
        EXPECT_THROW((void)obs::parseJson(bad), SimError) << bad;
    }
}

TEST(StatsBindings, SimStatsRoundTripThroughJson)
{
    core::RunOptions opts = smallRun();
    opts.epochAccesses = 4096;  // exercise the epoch series too
    sim::SimStats stats = core::runExperiment(opts);
    ASSERT_FALSE(stats.epochs.empty());

    obs::Json j = stats.toJson();
    sim::SimStats restored = obs::simStatsFromJson(j);
    EXPECT_EQ(restored.toJson().dump(), j.dump());

    obs::Json broken = obs::parseJson(j.dump());
    broken["engine"] = obs::Json::object();  // counters now missing
    EXPECT_THROW((void)obs::simStatsFromJson(broken), SimError);
}

TEST(StatsBindings, StatTreePinnedAcrossBuilds)
{
    // Read then written back byte for byte: no counter is dropped on
    // either side, and no path or key order has moved -- also for
    // counters that read 0 in every real run (os.compaction.*,
    // mmu.walk.nestedRefs).
    sim::SimStats stats =
        obs::simStatsFromJson(obs::parseJson(kPinnedStatTree));
    EXPECT_EQ(stats.toJson().dump(), kPinnedStatTree);
    EXPECT_EQ(stats.epochs.size(), 2u);
}

TEST(StatsBindings, AbsentCountersFollowTheirRestoreRule)
{
    const obs::Json tree = obs::parseJson(kPinnedStatTree);
    const std::vector<std::string> derived = {
        "engine.mpki", "engine.systemTimeFraction",
        "engine.walkCycleFraction", "os.work.totalCycles"};
    std::vector<std::string> paths;
    leafPaths(without(tree, "epochs"), "", paths);
    ASSERT_EQ(paths.size(), 62u);
    for (const std::string &path : paths) {
        obs::Json pruned = without(tree, path);
        if (path.rfind("os.buddy.", 0) == 0 ||
            path.rfind("os.compaction.", 0) == 0) {
            // Newer than manifest v2: absent restores as 0.
            obs::Json expect = tree;
            obs::Json *node = &expect;
            for (size_t pos = 0, dot = 0; dot != std::string::npos;
                 pos = dot + 1) {
                dot = path.find('.', pos);
                node = &(*node)[path.substr(pos, dot - pos)];
            }
            *node = obs::Json(uint64_t(0));
            EXPECT_EQ(obs::simStatsFromJson(pruned).toJson().dump(),
                      expect.dump())
                << path;
        } else if (std::find(derived.begin(), derived.end(), path) !=
                   derived.end()) {
            // Derived values are recomputed, never read.
            EXPECT_EQ(obs::simStatsFromJson(pruned).toJson().dump(),
                      kPinnedStatTree)
                << path;
        } else {
            EXPECT_THROW((void)obs::simStatsFromJson(pruned), SimError)
                << path;
        }
    }
    EXPECT_THROW(
        (void)obs::simStatsFromJson(without(tree, "epochs.interval")),
        SimError);
}

TEST(Manifest, FailedCellRecordsErrorAndStatus)
{
    obs::CellArtifact cell;
    cell.options = smallRun();
    cell.status = core::CellStatus::Timeout;
    cell.error = "cell exceeded its 2 s wall-clock budget";
    cell.errorKind = "timeout";
    cell.attempts = 3;

    obs::Json j = obs::cellJson(cell, /*includeHost=*/true);
    EXPECT_EQ(j.at("status").asString(), "timeout");
    EXPECT_EQ(j.at("errorKind").asString(), "timeout");
    EXPECT_NE(j.at("error").asString().find("wall-clock"),
              std::string::npos);
    EXPECT_EQ(j.at("attempts").asUInt(), 3u);

    obs::Json pure = obs::cellJson(cell, /*includeHost=*/false);
    EXPECT_EQ(pure.find("attempts"), nullptr);
    EXPECT_EQ(pure.find("wallSeconds"), nullptr);
    EXPECT_EQ(pure.at("status").asString(), "timeout");
}

TEST(Resume, ResumedSweepManifestIsByteIdentical)
{
    const std::vector<core::RunOptions> cells = {
        smallRun("gups", core::Design::Thp),
        smallRun("gups", core::Design::Tps),
        smallRun("gups", core::Design::Colt),
    };
    obs::ManifestInfo pure_info;
    pure_info.bench = "resume-golden";
    pure_info.includeHost = false;

    // Uninterrupted reference sweep.
    std::vector<obs::CellArtifact> full;
    for (const core::RunOptions &opts : cells) {
        obs::CellArtifact cell;
        cell.options = opts;
        cell.stats = core::runExperiment(opts);
        full.push_back(std::move(cell));
    }
    std::string golden =
        obs::manifestJson(pure_info, full).dump(2);

    // "Interrupted" artifact: only the first two cells completed.
    const std::string partial_path = scratchPath("partial");
    obs::writeManifest(partial_path, pure_info,
                       {full[0], full[1]});

    obs::ResumeLog log;
    ASSERT_TRUE(log.load(partial_path));
    EXPECT_EQ(log.size(), 2u);
    ASSERT_NE(log.find(cells[0]), nullptr);
    ASSERT_NE(log.find(cells[1]), nullptr);
    EXPECT_EQ(log.find(cells[2]), nullptr);

    // Resumed sweep: restore the first two, run only the third.
    std::vector<obs::CellArtifact> resumed;
    for (const core::RunOptions &opts : cells) {
        obs::CellArtifact cell;
        cell.options = opts;
        if (const obs::ResumedCell *prior = log.find(opts)) {
            cell.stats = prior->stats;
            cell.status = core::CellStatus::Resumed;
            cell.restored = prior->pure;
        } else {
            cell.stats = core::runExperiment(opts);
        }
        resumed.push_back(std::move(cell));
    }
    EXPECT_EQ(obs::manifestJson(pure_info, resumed).dump(2), golden);

    // Restored stats decode to the same tree the original run had.
    EXPECT_EQ(resumed[0].stats.toJson().dump(),
              full[0].stats.toJson().dump());

    // The host view marks restored cells.
    obs::ManifestInfo host_info = pure_info;
    host_info.includeHost = true;
    obs::Json host = obs::manifestJson(host_info, resumed);
    EXPECT_TRUE(host.at("cells").at(0).at("resumed").asBool());
    EXPECT_EQ(host.at("cells").at(2).find("resumed"), nullptr);

    std::remove(partial_path.c_str());
}

TEST(Resume, CanonicalizesRobustnessKnobs)
{
    // A cell completed under --paranoid/--cell-timeout must be found
    // when resuming without them (they cannot change the statistics).
    core::RunOptions ran = smallRun();
    ran.paranoid = true;
    ran.checkEvery = 1000;
    ran.cellTimeoutSeconds = 30.0;

    obs::CellArtifact cell;
    cell.options = ran;
    cell.stats = core::runExperiment(ran);
    obs::ManifestInfo info;
    info.bench = "canon";
    info.includeHost = false;
    const std::string path = scratchPath("canon");
    obs::writeManifest(path, info, {cell});

    obs::ResumeLog log;
    ASSERT_TRUE(log.load(path));
    EXPECT_NE(log.find(smallRun()), nullptr);

    // A genuinely different cell still misses.
    core::RunOptions other = smallRun();
    other.scale = 0.03;
    EXPECT_EQ(log.find(other), nullptr);

    std::remove(path.c_str());
}

TEST(Resume, FailedCellsAreNotRestored)
{
    obs::CellArtifact ok;
    ok.options = smallRun("gups", core::Design::Thp);
    ok.stats = core::runExperiment(ok.options);

    obs::CellArtifact bad;
    bad.options = smallRun("gups", core::Design::Tps);
    bad.status = core::CellStatus::Failed;
    bad.error = "boom";
    bad.errorKind = "invalid-access";

    obs::ManifestInfo info;
    info.bench = "failures";
    info.includeHost = false;
    const std::string path = scratchPath("failures");
    obs::writeManifest(path, info, {ok, bad});

    obs::ResumeLog log;
    ASSERT_TRUE(log.load(path));
    EXPECT_EQ(log.size(), 1u);
    EXPECT_NE(log.find(ok.options), nullptr);
    EXPECT_EQ(log.find(bad.options), nullptr);

    std::remove(path.c_str());
}

TEST(Resume, CellOfAnotherSeedIsRerunNotRestored)
{
    // Manifests written while the seed still hashed the design record,
    // for every cell, a seed other than today's runSeed().  Such a cell
    // is re-run, never restored, so the stats of an unpaired stream
    // cannot join a paired sweep.
    obs::CellArtifact cell;
    cell.options = smallRun("gups", core::Design::Tps);
    cell.stats = core::runExperiment(cell.options);
    obs::ManifestInfo info;
    info.bench = "reseeded";
    info.includeHost = false;
    const obs::Json manifest = obs::manifestJson(info, {cell});
    const std::string path = scratchPath("reseeded");
    obs::writeJsonFile(path, manifest);
    obs::ResumeLog log;
    ASSERT_TRUE(log.load(path));
    ASSERT_NE(log.find(cell.options), nullptr);

    // The seed the old rule gave this cell: workload, design and the
    // scale's bit pattern, hashed in that order.
    uint64_t unpaired =
        hashCombine(hashCombine(stableHash64("gups"), stableHash64("tps")),
                    std::bit_cast<uint64_t>(cell.options.scale));
    ASSERT_NE(unpaired, core::runSeed(cell.options));
    obs::Json stale = manifest.at("cells").at(0);
    stale["seed"] = obs::Json(unpaired);
    obs::Json doc = without(manifest, "cells");
    doc["cells"].push(stale);
    obs::writeJsonFile(path, doc);
    ASSERT_TRUE(log.load(path));
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(log.find(cell.options), nullptr);

    std::remove(path.c_str());
}

TEST(Resume, MissingOrMalformedManifestLoadsNothing)
{
    obs::ResumeLog log;
    EXPECT_FALSE(log.load("does-not-exist.json"));
    EXPECT_EQ(log.size(), 0u);

    const std::string path = scratchPath("malformed");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\": \"something-else\"}", f);
    std::fclose(f);
    EXPECT_FALSE(log.load(path));
    std::remove(path.c_str());
}

TEST(Resume, RejectedByMergeLoadsNothing)
{
    // Hand-edited manifests that merging rejects: options without the
    // workload name, a non-string status, a non-string bench, a shard
    // index that is not a number.  Each is refused with a reason, not
    // an abort, and restores nothing.
    const std::string path = scratchPath("rejected_by_merge");
    for (const char *doc :
         {R"({"format": "tps-run-manifest", "bench": "x", "cells": )"
          R"([{"options": {"design": "thp"}, "seed": 1}]})",
          R"({"format": "tps-run-manifest", "bench": "x", "cells": )"
          R"([{"options": {"workload": "gups", "design": "thp"}, )"
          R"("seed": 1, "status": 1}]})",
          R"({"format": "tps-run-manifest", "bench": 5, "cells": []})",
          R"({"format": "tps-run-manifest", "bench": "x", "cells": [], )"
          R"("host": {"shard": {"index": "0", "count": 2, )"
          R"("gridFingerprint": "f", "grid": []}}})"}) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(doc, f);
        std::fclose(f);
        obs::ResumeLog log;
        EXPECT_FALSE(log.load(path)) << doc;
        EXPECT_EQ(log.size(), 0u);
        EXPECT_FALSE(log.error().empty()) << doc;
    }
    std::remove(path.c_str());
}

TEST(Resume, UnreadableStatsLoadsNothing)
{
    // An ok cell whose stats tree is missing, lacks a required counter
    // or a stats.mem section, or holds a non-counter: the file loads
    // nothing, even its good cell, and says which cell failed.
    obs::CellArtifact good;
    good.options = smallRun("gups", core::Design::Thp);
    obs::CellArtifact bad;
    bad.options = smallRun("gups", core::Design::Tps);
    bad.stats.mem.enabled = true;
    obs::ManifestInfo info;
    info.bench = "unreadable";
    info.includeHost = false;
    const obs::Json manifest = obs::manifestJson(info, {good, bad});
    const obs::Json &bad_cell = manifest.at("cells").at(1);
    obs::Json wrong_kind = without(bad_cell, "stats.engine.cycles");
    wrong_kind["stats"]["engine"]["cycles"] = std::string("many");
    obs::Json wrong_mem = without(bad_cell, "stats.mem.compaction.passes");
    wrong_mem["stats"]["mem"]["compaction"]["passes"] = -1;

    const std::string path = scratchPath("unreadable");
    for (const obs::Json &cell :
         {without(bad_cell, "stats"),
          without(bad_cell, "stats.mmu.walk.memRefs"), wrong_kind,
          without(bad_cell, "stats.mem.lifecycle"), wrong_mem}) {
        obs::Json doc = without(manifest, "cells");
        doc["cells"].push(manifest.at("cells").at(0));
        doc["cells"].push(cell);
        obs::writeJsonFile(path, doc);
        obs::ResumeLog log;
        EXPECT_FALSE(log.load(path)) << cell.dump();
        EXPECT_EQ(log.size(), 0u);
        EXPECT_EQ(log.find(good.options), nullptr);
        EXPECT_NE(log.error().find("gups/tps"), std::string::npos)
            << log.error();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tps
