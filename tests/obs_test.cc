/**
 * @file
 * Tests for the observability layer: the JSON document model, the stat
 * table (sorted unique paths, each row nested in the stat tree with its
 * field's value), epoch sampling, run manifests, and the counts the
 * experiment runner reports to a sweep monitor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/shard.hh"
#include "obs/stats_bindings.hh"
#include "obs/sweep_monitor.hh"
#include "sim/engine.hh"

namespace tps::obs {
namespace {

// ---------------------------------------------------------------- Json

TEST(Json, ScalarDumps)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(uint64_t(18446744073709551615ull)).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json(int64_t(-42)).dump(), "-42");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(),
              "null");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(Json("x\"y").dump(), "\"x\\\"y\"");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json j = Json::object();
    j["zebra"] = Json(uint64_t(1));
    j["apple"] = Json(uint64_t(2));
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2}");
    ASSERT_EQ(j.members().size(), 2u);
    EXPECT_EQ(j.members()[0].first, "zebra");
    EXPECT_EQ(j.members()[1].first, "apple");
}

TEST(Json, NullBecomesObjectOrArrayOnFirstUse)
{
    Json obj;
    obj["k"] = Json(uint64_t(3));
    EXPECT_EQ(obj.kind(), Json::Kind::Object);
    EXPECT_EQ(obj.at("k").asUInt(), 3u);

    Json arr;
    arr.push(Json(uint64_t(7)));
    arr.push(Json("s"));
    EXPECT_EQ(arr.kind(), Json::Kind::Array);
    ASSERT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr.at(0).asUInt(), 7u);
    EXPECT_EQ(arr.at(1).asString(), "s");
}

TEST(Json, FindProbesWithoutInserting)
{
    Json j = Json::object();
    j["present"] = Json(true);
    EXPECT_NE(j.find("present"), nullptr);
    EXPECT_EQ(j.find("absent"), nullptr);
    EXPECT_EQ(j.size(), 1u);
}

TEST(Json, PrettyDump)
{
    Json j = Json::object();
    j["a"] = Json(uint64_t(1));
    j["b"] = Json::array();
    j["b"].push(Json(uint64_t(2)));
    EXPECT_EQ(j.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, DumpIsDeterministic)
{
    Json j = Json::object();
    j["x"] = Json(1.0 / 3.0);
    j["y"] = Json(uint64_t(99));
    EXPECT_EQ(j.dump(2), j.dump(2));
}

// ----------------------------------------------------------- stat table

core::RunOptions
smallRun(uint64_t epochAccesses = 0)
{
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = core::Design::Thp;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    opts.epochAccesses = epochAccesses;
    return opts;
}

TEST(StatTable, PathsAreSortedAndUnique)
{
    // Sorted by full dotted path, strictly: SimStats::toJson() nests
    // the rows in table order, so this is the tree's key order, and no
    // two rows can claim one path.
    std::vector<std::string> paths;
    sim::SimStats stats;
    sim::forEachSimStat(stats, [&](const char *path, auto &&,
                                   sim::StatRestore) {
        paths.push_back(path);
    });
    ASSERT_FALSE(paths.empty());
    for (size_t i = 1; i < paths.size(); ++i)
        EXPECT_LT(paths[i - 1], paths[i]);
}

TEST(StatTable, TreeNestsEveryRowAtItsDottedPath)
{
    sim::SimStats stats = core::runExperiment(smallRun());
    ASSERT_GT(stats.accesses, 0u);
    Json tree = stats.toJson();
    size_t rows = 0;
    sim::forEachSimStat(stats, [&](const char *path, const auto &value,
                                   sim::StatRestore) {
        const Json *node = &tree;
        std::string rest = path;
        for (size_t dot; (dot = rest.find('.')) != std::string::npos;
             rest.erase(0, dot + 1)) {
            ASSERT_NE(node = node->find(rest.substr(0, dot)), nullptr)
                << path;
        }
        ASSERT_NE(node = node->find(rest), nullptr) << path;
        EXPECT_EQ(node->dump(), Json(value).dump()) << path;
        ++rows;
    });
    // ...and the tree holds nothing else (no epochs or mem here).
    std::function<size_t(const Json &)> leaves = [&](const Json &j) {
        if (j.kind() != Json::Kind::Object)
            return size_t(1);
        size_t n = 0;
        for (const auto &member : j.members())
            n += leaves(member.second);
        return n;
    };
    EXPECT_EQ(leaves(tree), rows);
}

// ------------------------------------------------------ epoch sampling

TEST(Epochs, OffByDefault)
{
    sim::SimStats stats = core::runExperiment(smallRun());
    EXPECT_EQ(stats.epochInterval, 0u);
    EXPECT_TRUE(stats.epochs.empty());
    EXPECT_TRUE(epochsJson(stats).isNull());
    EXPECT_EQ(stats.toJson().find("epochs"), nullptr);
}

TEST(Epochs, DeltasSumToTotals)
{
    const uint64_t interval = 7000;
    sim::SimStats stats = core::runExperiment(smallRun(interval));
    EXPECT_EQ(stats.epochInterval, interval);
    ASSERT_FALSE(stats.epochs.empty());

    sim::EpochSample sum;
    for (size_t i = 0; i < stats.epochs.size(); ++i) {
        const sim::EpochSample &e = stats.epochs[i];
        // Every epoch but the final one covers exactly the interval.
        if (i + 1 < stats.epochs.size())
            EXPECT_EQ(e.accesses, interval);
        else
            EXPECT_LE(e.accesses, interval);
        sum.accesses += e.accesses;
        sum.instructions += e.instructions;
        sum.cycles += e.cycles;
        sum.l1TlbMisses += e.l1TlbMisses;
        sum.l2TlbHits += e.l2TlbHits;
        sum.walks += e.walks;
        sum.walkMemRefs += e.walkMemRefs;
        sum.walkCycles += e.walkCycles;
        sum.faults += e.faults;
    }
    // The series is a lossless decomposition of the measured phase.
    EXPECT_EQ(sum.accesses, stats.accesses);
    EXPECT_EQ(sum.instructions, stats.instructions);
    EXPECT_EQ(sum.cycles, stats.cycles);
    EXPECT_EQ(sum.l1TlbMisses, stats.l1TlbMisses);
    EXPECT_EQ(sum.l2TlbHits, stats.l2TlbHits);
    EXPECT_EQ(sum.walks, stats.tlbMisses);
    EXPECT_EQ(sum.walkMemRefs, stats.walkMemRefs);
    EXPECT_EQ(sum.walkCycles, stats.walkCycles);
    EXPECT_EQ(sum.faults, stats.faults);
}

TEST(Epochs, SamplingDoesNotPerturbResults)
{
    sim::SimStats plain = core::runExperiment(smallRun());
    sim::SimStats sampled = core::runExperiment(smallRun(5000));
    EXPECT_EQ(plain.accesses, sampled.accesses);
    EXPECT_EQ(plain.cycles, sampled.cycles);
    EXPECT_EQ(plain.l1TlbMisses, sampled.l1TlbMisses);
    EXPECT_EQ(plain.walkMemRefs, sampled.walkMemRefs);
    EXPECT_EQ(plain.faults, sampled.faults);
}

TEST(Epochs, JsonSeries)
{
    sim::SimStats stats = core::runExperiment(smallRun(10000));
    Json j = epochsJson(stats);
    ASSERT_FALSE(j.isNull());
    EXPECT_EQ(j.at("interval").asUInt(), 10000u);
    ASSERT_EQ(j.at("samples").size(), stats.epochs.size());
    const Json &first = j.at("samples").at(0);
    EXPECT_EQ(first.at("accesses").asUInt(), stats.epochs[0].accesses);
    EXPECT_EQ(first.at("mpki").asDouble(), stats.epochs[0].mpki());
    // And the full stat tree embeds the same series.
    EXPECT_EQ(stats.toJson().at("epochs").dump(), j.dump());
}

// ------------------------------------------------------- run manifest

TEST(Manifest, CellJsonContents)
{
    core::RunOptions opts = smallRun();
    CellArtifact cell;
    cell.options = opts;
    cell.stats = core::runExperiment(opts);
    cell.wallSeconds = 1.5;

    Json j = cellJson(cell, /*includeHost=*/false);
    EXPECT_EQ(j.at("workload").at("name").asString(), "gups");
    EXPECT_EQ(j.at("design").asString(), "thp");
    EXPECT_EQ(j.at("seed").asUInt(), core::runSeed(opts));
    EXPECT_EQ(j.at("options").at("workload").asString(), "gups");
    EXPECT_EQ(j.at("options").at("physBytes").asUInt(),
              opts.physBytes);
    EXPECT_NE(j.at("engineConfig").find("mmu"), nullptr);
    EXPECT_NE(j.at("engineConfig").find("memsys"), nullptr);
    EXPECT_EQ(j.at("stats").at("engine").at("accesses").asUInt(),
              cell.stats.accesses);
    // Host-dependent data stays out unless asked for.
    EXPECT_EQ(j.find("wallSeconds"), nullptr);
    EXPECT_NE(cellJson(cell, true).find("wallSeconds"), nullptr);
}

TEST(Manifest, ManifestShape)
{
    core::RunOptions opts = smallRun();
    CellArtifact cell;
    cell.options = opts;
    cell.stats = core::runExperiment(opts);

    ManifestInfo info;
    info.bench = "unit";
    info.jobs = 3;
    info.wallSeconds = 2.0;
    Json j = manifestJson(info, {cell});
    EXPECT_EQ(j.at("format").asString(), "tps-run-manifest");
    EXPECT_EQ(j.at("version").asUInt(), 2u);
    EXPECT_EQ(j.at("bench").asString(), "unit");
    EXPECT_EQ(j.at("host").at("jobs").asUInt(), 3u);
    ASSERT_EQ(j.at("cells").size(), 1u);

    info.includeHost = false;
    Json pure = manifestJson(info, {cell});
    EXPECT_EQ(pure.find("host"), nullptr);
    EXPECT_EQ(pure.at("cells").at(0).find("wallSeconds"), nullptr);
}

TEST(Manifest, HostFreeManifestIsReproducible)
{
    // Two independent runs of the same cell serialize byte-identically
    // once host data is excluded.
    core::RunOptions opts = smallRun(10000);
    ManifestInfo info;
    info.bench = "unit";
    info.includeHost = false;

    CellArtifact a;
    a.options = opts;
    a.stats = core::runExperiment(opts);
    a.wallSeconds = 0.1;
    CellArtifact b;
    b.options = opts;
    b.stats = core::runExperiment(opts);
    b.wallSeconds = 99.9;  // must not leak into the output

    EXPECT_EQ(manifestJson(info, {a}).dump(2),
              manifestJson(info, {b}).dump(2));
}

TEST(Manifest, OptionsAndIdentityArePinnedAcrossBuilds)
{
    // Pinned strings, not a comparison of two runs of one build: a
    // change to the run-option table that moves a key, a default or an
    // emit rule breaks every existing manifest, resume and shard join.
    const std::string base =
        R"("physBytes":8589934592,"tpsThreshold":1,"smt":false,)"
        R"("virtualized":false,"fiveLevel":false,"noMmuCache":false,)"
        R"("tpsTlbSkewed":false,"fragmented":false,)"
        R"("fragmenter":{"targetFreeFraction":0.3,"churnOps":120000,)"
        R"("maxBlockOrder":10,"smallBias":1.7,"seed":24301},)"
        R"("timing":"real","aliasMode":"pointer","encoding":"napot",)"
        R"("maxAccesses":18446744073709551615,"epochAccesses":0,)"
        R"("paranoid":false,"checkEvery":0,"cellTimeoutSeconds":0})";
    const std::string defaults =
        R"({"workload":"","design":"thp","scale":1,)" + base;
    core::RunOptions d;
    EXPECT_EQ(runOptionsJson(d).dump(), defaults);
    EXPECT_EQ(cellIdentity(d), defaults + "#17649696875803619419");

    // Every emitted option off its default, plus the never-emitted ones.
    core::RunOptions o;
    o.workload = "gcc";
    o.design = core::Design::TpsEager;
    o.scale = 0.5;
    o.physBytes = 4ull << 30;
    o.tpsThreshold = 0.75;
    o.smt = true;
    o.virtualized = true;
    o.fiveLevel = true;
    o.noMmuCache = true;
    o.tpsTlbSkewed = true;
    o.tpsTlbEntries = 64;
    o.fragmented = true;
    o.fragmenter.targetFreeFraction = 0.5;
    o.fragmenter.churnOps = 1000;
    o.fragmenter.maxBlockOrder = 8;
    o.fragmenter.smallBias = 2.5;
    o.fragmenter.seed = 7;
    o.timing = sim::TlbTimingMode::PerfectL2;
    o.aliasMode = vm::AliasMode::FullCopy;
    o.encoding = vm::SizeEncoding::SizeField;
    o.maxAccesses = 123456;
    o.epochAccesses = 5000;
    o.paranoid = true;
    o.checkEvery = 777;
    o.cellTimeoutSeconds = 2.5;
    o.referencePath = true;
    o.chunkAccesses = 64;
    o.memTelemetry = true;
    o.footprintBytes = 1ull << 30;
    o.denseState = true;
    const std::string head =
        R"({"workload":"gcc","design":"tps-eager","scale":0.5,)"
        R"("physBytes":4294967296,"tpsThreshold":0.75,"smt":true,)"
        R"("virtualized":true,"fiveLevel":true,"noMmuCache":true,)"
        R"("tpsTlbSkewed":true,"fragmented":true,)"
        R"("fragmenter":{"targetFreeFraction":0.5,"churnOps":1000,)"
        R"("maxBlockOrder":8,"smallBias":2.5,"seed":7},)"
        R"("timing":"perfect-l2","aliasMode":"full-copy",)"
        R"("encoding":"size-field","maxAccesses":123456,)"
        R"("epochAccesses":5000,)";
    const std::string tail =
        R"("memTelemetry":true,"footprintBytes":1073741824,)"
        R"("tpsTlbEntries":64})";
    EXPECT_EQ(runOptionsJson(o).dump(),
              head +
                  R"("paranoid":true,"checkEvery":777,)"
                  R"("cellTimeoutSeconds":2.5,)" +
                  tail);
    EXPECT_EQ(cellIdentity(o),
              head +
                  R"("paranoid":false,"checkEvery":0,)"
                  R"("cellTimeoutSeconds":0,)" +
                  tail + "#12250435353445886631");
}

// ------------------------------------------------------ sweep monitor

TEST(ExperimentRunner, MapKeepsOrderAndReportsEachCellOnce)
{
    SweepMonitor mon;
    core::ExperimentRunner runner(2);
    runner.setMonitor(&mon);
    std::vector<int> items = {1, 2, 3, 4};
    auto doubled = runner.map(
        items, [](int v) { return 2 * v; },
        [](int v, size_t) { return "item " + std::to_string(v); });
    EXPECT_EQ(doubled, (std::vector<int>{2, 4, 6, 8}));
    Json beat = mon.heartbeatJson(false);
    EXPECT_EQ(beat.at("planned").asUInt(), 4u);
    EXPECT_EQ(beat.at("done").asUInt(), 4u);
    EXPECT_EQ(beat.at("failed").asUInt(), 0u);
    EXPECT_EQ(beat.at("lastCell").asString().rfind("item ", 0), 0u);

    // A guarded cell reports once, with its attempts and its outcome.
    core::RunOptions bad;
    bad.workload = "nonexistent-workload";
    core::SweepPolicy policy;
    policy.retries = 1;
    std::vector<core::CellOutcome> out = runner.runGuarded({bad}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, core::CellStatus::Failed);
    beat = mon.heartbeatJson(false);
    EXPECT_EQ(beat.at("planned").asUInt(), 5u);
    EXPECT_EQ(beat.at("done").asUInt(), 5u);
    EXPECT_EQ(beat.at("failed").asUInt(), 1u);
    EXPECT_EQ(beat.at("retried").asUInt(), 1u);
    EXPECT_EQ(beat.at("lastCell").asString(), core::cellLabel(bad));
}

} // namespace
} // namespace tps::obs
