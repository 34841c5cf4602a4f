/**
 * @file
 * The sharded-sweep golden guarantee and `tps merge` rejection tests.
 *
 * The tentpole test runs one real grid (3 workloads x 2 designs) three
 * ways -- unsharded, as 2 shards, and as 3 shards, each shard with a
 * different --jobs -- and requires mergeManifests() over the partials
 * to be BYTE-identical to the pure manifest of the unsharded run.  The
 * rest pins the merge safety net: overlapping, foreign, truncated and
 * nondeterministic partials are rejected with actionable errors, and
 * holes are reported with shard attribution.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/shard.hh"
#include "util/sim_error.hh"

namespace tps::obs {
namespace {

std::vector<core::RunOptions>
gridCells()
{
    std::vector<core::RunOptions> cells;
    for (const char *wl : {"gups", "mcf", "xsbench"}) {
        for (core::Design d : {core::Design::Thp, core::Design::Tps}) {
            core::RunOptions run;
            run.workload = wl;
            run.design = d;
            run.scale = 0.02;
            run.physBytes = 512ull << 20;
            run.maxAccesses = 20000;
            cells.push_back(run);
        }
    }
    return cells;
}

std::vector<CellArtifact>
runCells(const std::vector<core::RunOptions> &cells, unsigned jobs)
{
    core::ExperimentRunner runner(jobs);
    std::vector<core::CellOutcome> outcomes = runner.runGuarded(cells);
    std::vector<CellArtifact> arts;
    arts.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        CellArtifact art;
        art.options = cells[i];
        art.stats = outcomes[i].stats;
        art.status = outcomes[i].status;
        art.error = outcomes[i].error;
        art.errorKind = outcomes[i].errorKind;
        art.attempts = outcomes[i].attempts;
        art.wallSeconds = outcomes[i].seconds;
        arts.push_back(std::move(art));
    }
    return arts;
}

/**
 * One shard's partial manifest, produced exactly as a bench does: plan
 * the FULL grid, run only the owned cells, embed the plan's provenance
 * under host.shard, and round-trip through dump/parse the way a real
 * file does.
 */
Json
shardPartial(const std::vector<core::RunOptions> &grid, unsigned index,
             unsigned count, unsigned jobs)
{
    ShardPlan plan(ShardSpec{index, count});
    std::vector<core::RunOptions> owned;
    for (const core::RunOptions &opts : grid) {
        if (plan.planCell(opts))
            owned.push_back(opts);
    }
    ManifestInfo info;
    info.bench = "merge_test";
    info.jobs = jobs;
    info.wallSeconds = 1.25;
    info.shard = plan.provenanceJson();
    return parseJson(
        manifestJson(info, runCells(owned, jobs)).dump());
}

/** The whole golden fixture, computed once per test binary. */
struct Golden
{
    std::string canonical;  //!< pure unsharded manifest bytes
    Json unshardedHost;     //!< same run, with the host section
    std::vector<Json> n2;   //!< 2 shards, jobs 1 and 4
    std::vector<Json> n3;   //!< 3 shards, jobs 4, 1 and 2
};

const Golden &
golden()
{
    static const Golden g = [] {
        Golden out;
        std::vector<core::RunOptions> grid = gridCells();

        ManifestInfo pure;
        pure.bench = "merge_test";
        pure.includeHost = false;
        std::vector<CellArtifact> arts = runCells(grid, 2);
        out.canonical = manifestJson(pure, arts).dump();

        ManifestInfo hosted;
        hosted.bench = "merge_test";
        hosted.jobs = 2;
        hosted.wallSeconds = 0.5;
        out.unshardedHost =
            parseJson(manifestJson(hosted, arts).dump());

        out.n2 = {shardPartial(grid, 0, 2, 1),
                  shardPartial(grid, 1, 2, 4)};
        out.n3 = {shardPartial(grid, 0, 3, 4),
                  shardPartial(grid, 1, 3, 1),
                  shardPartial(grid, 2, 3, 2)};
        return out;
    }();
    return g;
}

std::vector<std::string>
names(size_t n)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back("shard" + std::to_string(i) + ".json");
    return out;
}

/** Expect mergeManifests to throw with @p needle in the message. */
void
expectMergeError(const std::vector<Json> &manifests,
                 const std::vector<std::string> &sources,
                 const std::string &needle)
{
    try {
        mergeManifests(manifests, sources);
        FAIL() << "merge accepted bad input (wanted: " << needle << ")";
    } catch (const SimError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "actual message: " << err.what();
    }
}

/** Replace the first occurrence of @p from in @p text. */
std::string
tamper(const std::string &text, const std::string &from,
       const std::string &to)
{
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << "needle not found: " << from;
    std::string out = text;
    out.replace(pos, from.size(), to);
    return out;
}

TEST(MergeGolden, TwoShardsMixedJobsAreByteIdentical)
{
    MergeResult res = mergeManifests(golden().n2, names(2));
    EXPECT_EQ(res.manifest.dump(), golden().canonical);
    EXPECT_EQ(res.bench, "merge_test");
    EXPECT_EQ(res.shardCount, 2u);
    EXPECT_EQ(res.shardsPresent, (std::vector<unsigned>{0, 1}));
    EXPECT_TRUE(res.shardsMissing.empty());
    EXPECT_TRUE(res.holes.empty());
    EXPECT_EQ(res.cells, 6u);
    EXPECT_EQ(res.okCells, 6u);
    EXPECT_EQ(res.duplicates, 0u);
    EXPECT_EQ(res.gridFingerprint.size(), 16u);
}

TEST(MergeGolden, ThreeShardsMixedJobsAreByteIdentical)
{
    MergeResult res = mergeManifests(golden().n3, names(3));
    EXPECT_EQ(res.manifest.dump(), golden().canonical);
    EXPECT_TRUE(res.holes.empty());
    EXPECT_EQ(res.cells, 6u);
    // The partition, not the job counts, decides cell placement: both
    // shardings reconstruct the same bytes.
    EXPECT_NE(res.gridFingerprint,
              std::string());
}

TEST(MergeGolden, SingleUnshardedInputIsPurifiedPassthrough)
{
    // `tps merge` over the unsharded manifest strips the host section:
    // this is how CI canonicalizes before the byte comparison.
    MergeResult res =
        mergeManifests({golden().unshardedHost}, {"full.json"});
    EXPECT_EQ(res.manifest.dump(), golden().canonical);
    EXPECT_EQ(res.shardCount, 1u);
    EXPECT_TRUE(res.gridFingerprint.empty());
}

TEST(MergeGolden, RetriedShardManifestResolvesFirstOkWins)
{
    // The same shard submitted twice (a retry that finished twice) is
    // fine as long as the copies agree byte-for-byte.
    std::vector<Json> inputs = {golden().n2[0], golden().n2[0],
                                golden().n2[1]};
    MergeResult res = mergeManifests(inputs, names(3));
    EXPECT_EQ(res.manifest.dump(), golden().canonical);
    EXPECT_EQ(res.cells, 6u);
    EXPECT_GT(res.duplicates, 0u);
}

TEST(MergeHoles, MissingShardIsReportedWithAttribution)
{
    MergeResult res = mergeManifests({golden().n2[0]}, {"s0.json"});
    EXPECT_EQ(res.shardsMissing, std::vector<unsigned>{1});
    EXPECT_FALSE(res.holes.empty());
    size_t owned0 = res.cells;
    EXPECT_EQ(owned0 + res.holes.size(), 6u);
    for (const MergeHole &hole : res.holes) {
        EXPECT_EQ(hole.status, "missing");
        EXPECT_EQ(hole.shard, 1);
        EXPECT_FALSE(hole.label.empty());
        EXPECT_NE(hole.seed, 0u);
        EXPECT_TRUE(hole.source.empty());
    }
}

TEST(MergeHoles, FailedCellBecomesAttributedHole)
{
    // Flip one recorded cell to "failed": it must surface as a hole
    // naming the owning shard and the manifest that recorded it.
    Json bad = parseJson(tamper(golden().n2[1].dump(),
                                "\"status\":\"ok\"",
                                "\"status\":\"failed\""));
    MergeResult res =
        mergeManifests({golden().n2[0], bad}, names(2));
    ASSERT_EQ(res.holes.size(), 1u);
    EXPECT_EQ(res.holes[0].status, "failed");
    EXPECT_EQ(res.holes[0].shard, 1);
    EXPECT_EQ(res.holes[0].source, "shard1.json");
    EXPECT_EQ(res.cells, 6u);       // the failed cell is still emitted
    EXPECT_EQ(res.okCells, 5u);
}

TEST(MergeRejects, ForeignFingerprint)
{
    Json foreign = parseJson(tamper(golden().n2[1].dump(),
                                    "\"gridFingerprint\":\"",
                                    "\"gridFingerprint\":\"ffff"));
    expectMergeError({golden().n2[0], foreign}, names(2),
                     "foreign partial");
}

TEST(MergeRejects, OverlappingPartials)
{
    // Re-label shard 0's partial as shard 1: every cell it carries now
    // belongs to a shard other than the one claiming it.
    Json relabeled = parseJson(tamper(golden().n2[0].dump(),
                                      "\"index\":0", "\"index\":1"));
    expectMergeError({relabeled, golden().n2[1]},
                     {"s0-as-s1.json", "s1.json"},
                     "overlapping partials");
}

TEST(MergeRejects, NondeterministicOkCopies)
{
    // Two ok copies of one cell with different bytes: prepend a digit
    // to the first cycles count in the duplicate.
    Json warped = parseJson(
        tamper(golden().n2[0].dump(), "\"cycles\":", "\"cycles\":9"));
    expectMergeError({golden().n2[0], warped, golden().n2[1]},
                     {"s0.json", "s0-retry.json", "s1.json"},
                     "nondeterministic run or mismatched configs");
}

TEST(MergeRejects, MixedShardedAndUnsharded)
{
    expectMergeError({golden().n2[0], golden().unshardedHost},
                     {"s0.json", "full.json"},
                     "cannot mix sharded and unsharded");
}

TEST(MergeRejects, ShardCountMismatch)
{
    expectMergeError({golden().n2[0], golden().n3[1]},
                     {"n2-s0.json", "n3-s1.json"},
                     "shard count mismatch");
}

TEST(MergeRejects, NonManifestDocument)
{
    Json notManifest = Json::object();
    notManifest["format"] = std::string("tps-heartbeat");
    expectMergeError({notManifest}, {"beat.json"},
                     "not a tps-run-manifest");
}

TEST(MergeRejects, TruncatedManifestWithoutCells)
{
    Json truncated = Json::object();
    truncated["format"] = std::string("tps-run-manifest");
    truncated["version"] = uint64_t(2);
    truncated["bench"] = std::string("merge_test");
    expectMergeError({truncated}, {"truncated.json"},
                     "has no cells array");
}

TEST(MergeRejects, BenchMismatch)
{
    Json other = parseJson(tamper(golden().unshardedHost.dump(),
                                  "\"bench\":\"merge_test\"",
                                  "\"bench\":\"other_bench\""));
    expectMergeError({golden().unshardedHost, other},
                     {"a.json", "b.json"}, "bench mismatch");
}

TEST(MergeRejects, EmptyInput)
{
    expectMergeError({}, {}, "no manifests to merge");
}

} // namespace
} // namespace tps::obs
