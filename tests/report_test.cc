/**
 * @file
 * `tps report` tests: byte-stable output for fixed manifests, correct
 * hole reporting for partial sweeps, joining several partial manifests
 * into one complete grid, and the memory-telemetry sections driven by
 * a real --mem-telemetry run.
 */

#include <gtest/gtest.h>

#include "core/tps_system.hh"
#include "obs/report.hh"
#include "obs/run_manifest.hh"
#include "sim/engine.hh"
#include "util/sim_error.hh"

namespace tps::obs {
namespace {

/** An ok/failed cell whose stat tree sets just the fields the report
 *  reads. */
Json
makeCell(const std::string &wl, const std::string &design,
         const std::string &status, uint64_t cycles, uint64_t misses)
{
    Json cell = Json::object();
    Json &options = cell["options"];
    options["workload"] = wl;
    options["design"] = design;
    options["timing"] = std::string("real");
    cell["status"] = status;
    if (status == "ok") {
        sim::SimStats stats;
        stats.accesses = 1000;
        stats.instructions = 4000;
        stats.cycles = cycles;
        stats.l1TlbMisses = misses;
        stats.tlbMisses = misses / 2;
        cell["stats"] = stats.toJson();
    }
    return cell;
}

Json
makeManifest(std::vector<Json> cells)
{
    Json m = Json::object();
    m["format"] = std::string("tps-run-manifest");
    m["version"] = uint64_t(2);
    Json arr = Json::array();
    for (Json &cell : cells)
        arr.push(std::move(cell));
    m["cells"] = std::move(arr);
    return m;
}

TEST(Report, ByteStableForFixedManifests)
{
    Json m = makeManifest({makeCell("gups", "thp", "ok", 2000, 100),
                           makeCell("gups", "tps", "ok", 1000, 40)});
    Report a = buildReport({m}, {"run.json"});
    Report b = buildReport({m}, {"run.json"});
    EXPECT_EQ(a.csv, b.csv);
    EXPECT_EQ(a.markdown, b.markdown);
    EXPECT_EQ(a.cells, 2u);
    EXPECT_EQ(a.holes, 0u);
    EXPECT_NE(a.markdown.find("the workload x design grid is complete"),
              std::string::npos);
    // thp is the default baseline: tps ran in half the cycles.
    EXPECT_NE(a.markdown.find("Speedup vs thp"), std::string::npos);
    EXPECT_NE(a.csv.find("summary,gups,tps,speedup,,2\n"),
              std::string::npos);
    // MPKI: 100 misses / 4 kilo-instructions = 25.
    EXPECT_NE(a.csv.find("summary,gups,thp,mpki,,25\n"),
              std::string::npos);
}

TEST(Report, PartialManifestReportsHoles)
{
    // 2x2 grid with one failed cell and one never-run cell.
    Json m = makeManifest({makeCell("gups", "thp", "ok", 2000, 100),
                           makeCell("gups", "tps", "failed", 0, 0),
                           makeCell("mcf", "thp", "ok", 3000, 60)});
    Report rep = buildReport({m}, {"partial.json"});
    EXPECT_EQ(rep.cells, 2u);
    EXPECT_EQ(rep.holes, 2u);
    EXPECT_NE(rep.csv.find("hole,gups,tps,status,,failed\n"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("hole,mcf,tps,status,,missing\n"),
              std::string::npos);
    EXPECT_NE(rep.markdown.find("- `gups/tps`: failed"),
              std::string::npos);
    EXPECT_NE(rep.markdown.find("- `mcf/tps`: missing"),
              std::string::npos);
}

TEST(Report, JoinsPartialManifestsIntoCompleteGrid)
{
    // Two shards of one sweep: each covers one workload row.
    Json a = makeManifest({makeCell("gups", "thp", "ok", 2000, 100),
                           makeCell("gups", "tps", "ok", 1000, 40)});
    Json b = makeManifest({makeCell("mcf", "thp", "ok", 3000, 60),
                           makeCell("mcf", "tps", "ok", 1500, 20)});
    Report rep = buildReport({a, b}, {"a.json", "b.json"});
    EXPECT_EQ(rep.cells, 4u);
    EXPECT_EQ(rep.holes, 0u);
    EXPECT_NE(rep.markdown.find("`a.json` `b.json`"),
              std::string::npos);
}

TEST(Report, LaterOkCellFillsEarlierHole)
{
    // A rerun manifest repairs the failed cell of the first attempt;
    // for cells both ran ok, the first occurrence wins.
    Json first =
        makeManifest({makeCell("gups", "thp", "ok", 2000, 100),
                      makeCell("gups", "tps", "timeout", 0, 0)});
    Json rerun = makeManifest({makeCell("gups", "thp", "ok", 9999, 1),
                               makeCell("gups", "tps", "ok", 1000, 40)});
    Report rep = buildReport({first, rerun}, {"first.json", "rerun.json"});
    EXPECT_EQ(rep.cells, 2u);
    EXPECT_EQ(rep.holes, 0u);
    // thp keeps the first manifest's 2000 cycles, not the rerun's 9999.
    EXPECT_NE(rep.csv.find("summary,gups,thp,cycles,,2000\n"),
              std::string::npos);
    EXPECT_EQ(rep.csv.find("summary,gups,thp,cycles,,9999\n"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("summary,gups,tps,cycles,,1000\n"),
              std::string::npos);
}

TEST(Report, BaselineOverrideRotatesDesignOrder)
{
    Json m = makeManifest({makeCell("gups", "thp", "ok", 2000, 100),
                           makeCell("gups", "tps", "ok", 1000, 40)});
    ReportOptions opts;
    opts.baselineDesign = "tps";
    Report rep = buildReport({m}, {"run.json"}, opts);
    EXPECT_NE(rep.markdown.find("Speedup vs tps"), std::string::npos);
    EXPECT_NE(rep.csv.find("summary,gups,thp,speedup,,0.5\n"),
              std::string::npos);
}

TEST(Report, MissingBaselineFallsBackToFirstDesign)
{
    Json m = makeManifest({makeCell("gups", "colt", "ok", 2000, 100),
                           makeCell("gups", "rmm", "ok", 1000, 40)});
    Report rep = buildReport({m}, {"run.json"});
    // No "thp" in the grid: the first design in display order anchors.
    EXPECT_NE(rep.markdown.find("Speedup vs colt"), std::string::npos);
}

TEST(Report, RejectsNonManifestInput)
{
    Json bogus = Json::object();
    bogus["format"] = std::string("tps-perf-baseline");
    EXPECT_THROW(buildReport({bogus}, {"bogus.json"}), SimError);
    EXPECT_THROW(buildReport({Json::object()}, {"empty.json"}),
                 SimError);
}

TEST(Report, TelemetrySectionsFromRealRun)
{
    // End to end against the real manifest writer: a --mem-telemetry
    // run's "mem" section must surface as memSeries/census/lifecycle
    // CSV rows and the telemetry Markdown tables.
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = core::Design::Tps;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    opts.epochAccesses = 10000;
    opts.memTelemetry = true;

    CellArtifact cell;
    cell.options = opts;
    cell.stats = core::runExperiment(opts);
    ManifestInfo info;
    info.bench = "report-test";
    info.includeHost = false;
    Json manifest = manifestJson(info, {cell});

    Report rep = buildReport({manifest}, {"telemetry.json"});
    EXPECT_EQ(rep.cells, 1u);
    EXPECT_EQ(rep.holes, 0u);
    EXPECT_NE(rep.csv.find("memSeries,gups,tps,contiguity,0,"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("memSeries,gups,tps,extFrag2M,"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("census,gups,tps,pages,"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("lifecycle,gups,tps,created,,"),
              std::string::npos);
    EXPECT_NE(rep.csv.find("compaction,gups,tps,passes,,"),
              std::string::npos);
    EXPECT_NE(rep.markdown.find("## Memory telemetry (final sample)"),
              std::string::npos);
    EXPECT_NE(rep.markdown.find("## Reservation lifecycle"),
              std::string::npos);

    // Byte-stability holds through the real writer too.
    Report again = buildReport({manifest}, {"telemetry.json"});
    EXPECT_EQ(rep.csv, again.csv);
    EXPECT_EQ(rep.markdown, again.markdown);
}

} // namespace
} // namespace tps::obs
