/**
 * @file
 * Sweep-sharding unit tests: strict --shard spec parsing, the
 * partition-totality golden guarantee (union over all shards == full
 * grid, no dupes, independent of planning order and job counts), grid
 * fingerprints, shard provenance, heartbeat files, and the cross-shard
 * health view.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "core/tps_system.hh"
#include "obs/json.hh"
#include "obs/shard.hh"
#include "obs/sweep_monitor.hh"
#include "temp_path.hh"

namespace tps::obs {
namespace {

core::RunOptions
cell(const std::string &wl, core::Design d, double scale = 0.1)
{
    core::RunOptions run;
    run.workload = wl;
    run.design = d;
    run.scale = scale;
    run.physBytes = 1ull << 30;
    return run;
}

/** The grid every totality test shards. */
std::vector<core::RunOptions>
fullGrid()
{
    std::vector<core::RunOptions> cells;
    for (const char *wl : {"gups", "mcf", "xsbench", "graph500"}) {
        for (core::Design d :
             {core::Design::Thp, core::Design::Tps, core::Design::Rmm,
              core::Design::Colt, core::Design::Base4k}) {
            cells.push_back(cell(wl, d));
        }
    }
    // Ablation-style cells that share the seed with the plain ones but
    // differ in options: identity must still distinguish them.
    core::RunOptions five = cell("gups", core::Design::Tps);
    five.fiveLevel = true;
    cells.push_back(five);
    core::RunOptions virt = cell("gups", core::Design::Tps);
    virt.virtualized = true;
    cells.push_back(virt);
    return cells;
}

TEST(ShardSpec, ParsesStrictly)
{
    ShardSpec spec;
    EXPECT_TRUE(parseShardSpec("0/1", &spec));
    EXPECT_EQ(spec.index, 0u);
    EXPECT_EQ(spec.count, 1u);
    EXPECT_FALSE(spec.active());

    EXPECT_TRUE(parseShardSpec("1/3", &spec));
    EXPECT_EQ(spec.index, 1u);
    EXPECT_EQ(spec.count, 3u);
    EXPECT_TRUE(spec.active());

    EXPECT_TRUE(parseShardSpec("4095/4096", &spec));

    for (const char *bad :
         {"", "1", "1/", "/2", "a/b", "1/2/3", "1/b", "a/2", "-1/2",
          "+1/2", "1 /2", "1/ 2", "2/2", "3/2", "0/0", "0/4097",
          "0x1/2", "99999999999999999999/2"}) {
        ShardSpec out{7, 9};
        EXPECT_FALSE(parseShardSpec(bad, &out)) << "accepted: " << bad;
        // A failed parse must not clobber the output.
        EXPECT_EQ(out.index, 7u);
        EXPECT_EQ(out.count, 9u);
    }
}

TEST(ShardPlan, PartitionTotalityAcrossShardCounts)
{
    std::vector<core::RunOptions> grid = fullGrid();
    std::set<std::string> all;
    for (const core::RunOptions &opts : grid)
        all.insert(cellIdentity(opts));
    ASSERT_EQ(all.size(), grid.size());  // grid has no duplicate cells

    for (unsigned count : {1u, 2u, 3u, 5u, 8u}) {
        std::set<std::string> seen;
        size_t owned_total = 0;
        for (unsigned index = 0; index < count; ++index) {
            ShardPlan plan(ShardSpec{index, count});
            for (const core::RunOptions &opts : grid) {
                if (plan.planCell(opts)) {
                    // No shard may own a cell another shard owns.
                    EXPECT_TRUE(
                        seen.insert(cellIdentity(opts)).second)
                        << "duplicate ownership at N=" << count;
                }
            }
            owned_total += plan.ownedUnits();
            EXPECT_EQ(plan.plannedUnits(), grid.size());
        }
        // Union over all shards == the full grid, exactly.
        EXPECT_EQ(seen, all) << "holes at N=" << count;
        EXPECT_EQ(owned_total, grid.size());
    }
}

TEST(ShardPlan, OwnershipIndependentOfPlanningOrder)
{
    // The partition is a pure function of cell identity, so the same
    // cell lands on the same shard no matter when it is planned --
    // which is also why --jobs cannot change ownership (cells are
    // planned before the pool sees them, in input order).
    std::vector<core::RunOptions> grid = fullGrid();
    ShardPlan forward(ShardSpec{1, 3});
    std::vector<bool> fwd;
    for (const core::RunOptions &opts : grid)
        fwd.push_back(forward.planCell(opts));

    ShardPlan backward(ShardSpec{1, 3});
    std::vector<bool> bwd(grid.size());
    for (size_t i = grid.size(); i-- > 0;)
        bwd[i] = backward.planCell(grid[i]);
    EXPECT_EQ(fwd, bwd);
}

TEST(ShardPlan, RobustnessKnobsDoNotChangeOwnership)
{
    // paranoid/checkEvery/cellTimeoutSeconds are canonicalized out of
    // cell identity (like the ResumeLog), so a shard rerun with extra
    // checking executes the same slice.
    core::RunOptions plain = cell("gups", core::Design::Tps);
    core::RunOptions checked = plain;
    checked.paranoid = true;
    checked.checkEvery = 1000;
    checked.cellTimeoutSeconds = 60.0;
    EXPECT_EQ(cellIdentity(plain), cellIdentity(checked));
}

TEST(ShardPlan, FingerprintMatchesAcrossShardsAndDiffersAcrossGrids)
{
    std::vector<core::RunOptions> grid = fullGrid();
    ShardPlan s0(ShardSpec{0, 2});
    ShardPlan s1(ShardSpec{1, 2});
    ShardPlan unsharded;
    for (const core::RunOptions &opts : grid) {
        s0.planCell(opts);
        s1.planCell(opts);
        unsharded.planCell(opts);
    }
    EXPECT_EQ(s0.gridFingerprint(), s1.gridFingerprint());
    // The fingerprint hashes unit identities, not the shard spec.
    EXPECT_EQ(s0.gridFingerprint(), unsharded.gridFingerprint());
    EXPECT_EQ(s0.gridFingerprint().size(), 16u);

    // A different grid (one more cell) must not collide.
    ShardPlan other(ShardSpec{0, 2});
    for (const core::RunOptions &opts : grid)
        other.planCell(opts);
    other.planCell(cell("dbx1000", core::Design::Thp));
    EXPECT_NE(other.gridFingerprint(), s0.gridFingerprint());
}

TEST(ShardPlan, ProvenanceJsonShape)
{
    ShardPlan plan(ShardSpec{1, 2});
    plan.planCell(cell("gups", core::Design::Thp));
    Json prov = plan.provenanceJson();
    EXPECT_EQ(prov.at("index").asUInt(), 1u);
    EXPECT_EQ(prov.at("count").asUInt(), 2u);
    EXPECT_EQ(prov.at("gridFingerprint").asString(),
              plan.gridFingerprint());
    EXPECT_FALSE(prov.at("toolVersion").asString().empty());
    const Json &grid = prov.at("grid");
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.at(0).at("label").asString(), "gups/thp");
    EXPECT_NE(grid.at(0).at("seed").asUInt(), 0u);
    for (size_t i = 0; i < grid.size(); ++i)
        EXPECT_LT(grid.at(i).at("shard").asUInt(), 2u);
}

TEST(Heartbeat, MonitorWritesAndFinalizesHeartbeatFile)
{
    std::string path = test::tempPath("heartbeat.json");
    std::remove(path.c_str());
    {
        SweepMonitor::Config cfg;
        cfg.bench = "fig_test";
        cfg.heartbeatPath = path;
        cfg.heartbeatIntervalSeconds = 0.02;
        cfg.shard = ShardSpec{1, 2};
        cfg.gridFingerprint = "deadbeefdeadbeef";
        SweepMonitor mon(cfg);
        mon.addPlanned(3);
        mon.cellDone("gups/thp", 3, true);   // timed out after 3 attempts
        mon.cellDone("gups/tps", 1, false);
        // Let the periodic writer fire at least once mid-run.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        Json live = readJsonFile(path);
        EXPECT_EQ(live.at("format").asString(), "tps-heartbeat");
        EXPECT_FALSE(live.at("finished").asBool());
    }
    // Destruction writes the final heartbeat with finished = true.
    Json beat = readJsonFile(path);
    EXPECT_EQ(beat.at("format").asString(), "tps-heartbeat");
    EXPECT_EQ(beat.at("bench").asString(), "fig_test");
    EXPECT_EQ(beat.at("shard").at("index").asUInt(), 1u);
    EXPECT_EQ(beat.at("shard").at("count").asUInt(), 2u);
    EXPECT_EQ(beat.at("shard").at("gridFingerprint").asString(),
              "deadbeefdeadbeef");
    EXPECT_EQ(beat.at("planned").asUInt(), 3u);
    EXPECT_EQ(beat.at("done").asUInt(), 2u);
    EXPECT_EQ(beat.at("failed").asUInt(), 1u);   // the Timeout cell
    EXPECT_EQ(beat.at("retried").asUInt(), 2u);  // 3 attempts = 2 retries
    EXPECT_EQ(beat.at("lastCell").asString(), "gups/tps");
    EXPECT_TRUE(beat.at("finished").asBool());
    EXPECT_GT(beat.at("rssPeakBytes").asUInt(), 0u);
    std::remove(path.c_str());
}

// -------------------------------------------------------------------
// Health view.
// -------------------------------------------------------------------

Json
beat(unsigned index, unsigned count, uint64_t updatedMs, bool finished,
     uint64_t done = 5, uint64_t planned = 10,
     const std::string &fp = "f1f1f1f1f1f1f1f1")
{
    Json j = Json::object();
    j["format"] = std::string("tps-heartbeat");
    j["version"] = uint64_t(1);
    j["bench"] = std::string("fig_test");
    Json &shard = j["shard"];
    shard["index"] = index;
    shard["count"] = count;
    shard["gridFingerprint"] = fp;
    j["intervalSeconds"] = 1.0;
    j["updatedUnixMs"] = updatedMs;
    j["planned"] = planned;
    j["done"] = done;
    j["failed"] = uint64_t(1);
    j["retried"] = uint64_t(0);
    j["finished"] = finished;
    return j;
}

constexpr uint64_t kNow = 1000000000;

TEST(HealthView, AggregatesStatesAndTotals)
{
    std::vector<Json> beats = {
        beat(0, 3, kNow - 500, false),          // fresh: running
        beat(1, 3, kNow - 15'000, false),       // > 3x interval: stalled
        beat(2, 3, kNow - 120'000, false),      // > 10x interval: dead
    };
    HealthView view = buildHealthView(
        beats, {"b0.json", "b1.json", "b2.json"}, kNow);
    ASSERT_EQ(view.shards.size(), 3u);
    EXPECT_EQ(view.shardCount, 3u);
    EXPECT_EQ(view.shards[0].state, "running");
    EXPECT_EQ(view.shards[1].state, "stalled");
    EXPECT_EQ(view.shards[2].state, "dead");
    EXPECT_TRUE(view.anyStalled);
    EXPECT_FALSE(view.allFinished);
    EXPECT_TRUE(view.missingShards.empty());
    EXPECT_FALSE(view.fingerprintMismatch);
    EXPECT_EQ(view.planned, 30u);
    EXPECT_EQ(view.done, 15u);
    EXPECT_EQ(view.failed, 3u);
    EXPECT_EQ(view.shards[1].source, "b1.json");

    std::string text = view.render();
    EXPECT_NE(text.find("stalled"), std::string::npos);
    EXPECT_NE(text.find("dead"), std::string::npos);
    EXPECT_NE(text.find("15/30"), std::string::npos);
}

TEST(HealthView, FlagsMissingShardsAndFingerprintMismatch)
{
    std::vector<Json> beats = {
        beat(0, 3, kNow - 100, true),
        beat(2, 3, kNow - 100, true, 5, 10, "ffffffffffffffff"),
    };
    HealthView view = buildHealthView(beats, {"a", "b"}, kNow);
    EXPECT_EQ(view.missingShards, std::vector<unsigned>{1});
    EXPECT_TRUE(view.fingerprintMismatch);
    EXPECT_FALSE(view.allFinished);  // shard 1 never reported
    EXPECT_NE(view.render().find("no heartbeat from shard 1"),
              std::string::npos);
    EXPECT_NE(view.render().find("fingerprint"), std::string::npos);
}

TEST(HealthView, AllFinishedAndFreshestHeartbeatWins)
{
    std::vector<Json> beats = {
        beat(0, 2, kNow - 60'000, false, 3),  // stale duplicate
        beat(0, 2, kNow - 100, true, 10),     // fresh: wins
        beat(1, 2, kNow - 200, true, 10),
    };
    HealthView view = buildHealthView(beats, {"a", "b", "c"}, kNow);
    ASSERT_EQ(view.shards.size(), 2u);
    EXPECT_EQ(view.shards[0].done, 10u);
    EXPECT_EQ(view.shards[0].state, "done");
    EXPECT_TRUE(view.allFinished);
    EXPECT_FALSE(view.anyStalled);

    Json j = view.toJson();
    EXPECT_EQ(j.at("format").asString(), "tps-health");
    EXPECT_TRUE(j.at("allFinished").asBool());
    EXPECT_EQ(j.at("shards").size(), 2u);
}

TEST(HealthView, IgnoresForeignJsonDocuments)
{
    Json foreign = Json::object();
    foreign["format"] = std::string("tps-run-manifest");
    std::vector<Json> beats = {foreign, beat(0, 1, kNow - 100, false)};
    HealthView view = buildHealthView(beats, {"m.json", "b.json"}, kNow);
    ASSERT_EQ(view.shards.size(), 1u);
    EXPECT_EQ(view.shards[0].index, 0u);
}

} // namespace
} // namespace tps::obs
