/**
 * @file
 * tps: the one front door to the figure benches and to the offline
 * tools over run artifacts.
 *
 *   tps fig <name> [flags]
 *       Run one figure bench (bench/figures.cc): the same table, flags,
 *       output and manifest `bench` name as build/bench/<name>.
 *       `tps fig nosuch` lists the figure names.
 *
 *   tps merge <partial.json>... [--out=<path>] [--json]
 *             [--require-complete]
 *       Join sharded partial run manifests into the canonical
 *       byte-stable manifest (obs/shard.hh): the partials must come
 *       from one sweep, retried cells resolve first-ok-wins, and holes
 *       -- missing, failed or timed-out cells -- are reported with
 *       shard attribution.  With a single unsharded input it acts as a
 *       pure-form canonicalizer.  --require-complete turns any hole or
 *       missing shard into a non-zero exit for CI gating.
 *
 *   tps watch <dir> [--interval=<sec>] [--once] [--json]
 *       Aggregate the heartbeat files sharded sweeps write
 *       (--heartbeat=<path>) in <dir> into one cross-shard progress
 *       view, flagging stalled or dead shards.  --once prints one
 *       snapshot; otherwise it refreshes until every shard finished.
 *
 *   tps report <manifest.json>... [--csv=<path>] [--md=<path>]
 *              [--baseline=<design>]
 *       Byte-stable cross-design comparison report (obs/report.hh):
 *       MPKI and speedup tables, memory-telemetry sections and the
 *       holes.  With neither --csv nor --md the Markdown goes to
 *       stdout.
 *
 *   tps analyze summary <trace>
 *   tps analyze report <trace> [--cell=<label>] [--manifest=<path>]
 *                      [--top=<n>] [--json]
 *   tps analyze dump <trace> [--cell=<label>]
 *       Offline miss attribution over an event-trace container
 *       (obs/trace_analyze.hh): list its cells, report one cell's
 *       measured totals, residual misses by page size, per-VMA and
 *       hot-region breakdowns and histograms, or dump its raw events.
 *       --cell takes the cell's label (core::cellLabel()).  --manifest
 *       joins the trace with a run manifest by (label, seed) and
 *       requires the trace's measured miss count to equal the
 *       manifest's mmu.l1.misses -- a mismatch is a hard error.
 *
 * `tps fig` takes the figure benches' flags.  Every other subcommand
 * parses its flags the same way: "--name=<value>"
 * options reject an empty value (an unset shell variable must not
 * silently drop the option), unknown options are fatal, and any error
 * is one "fatal:" line on stderr with a non-zero exit.
 */

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fig_common.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/shard.hh"
#include "obs/trace_analyze.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/sim_error.hh"

using namespace tps;

namespace {

const char *const kUsage =
    "usage: tps fig <name> [--scale=<f>] [--csv] [--jobs=<n>] ... "
    "(tps fig <name> --help lists them)\n"
    "       tps merge <partial.json>... [--out=<path>] [--json] "
    "[--require-complete]\n"
    "       tps watch <dir> [--interval=<sec>] [--once] [--json]\n"
    "       tps report <manifest.json>... [--csv=<path>] [--md=<path>] "
    "[--baseline=<design>]\n"
    "       tps analyze <summary|report|dump> <trace-file> "
    "[--cell=<label>]\n"
    "                   [--manifest=<path>] [--top=<n>] [--json]\n";

// ---------------------------------------------------------------------
// The shared flag parser, reader and writer.
// ---------------------------------------------------------------------

/** One subcommand's parsed command line. */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> values;  //!< --name=<value>
    std::set<std::string> switches;             //!< bare --name

    bool has(const std::string &name) const
    {
        return switches.count(name) != 0;
    }

    std::string value(const std::string &name) const
    {
        auto it = values.find(name);
        return it == values.end() ? "" : it->second;
    }
};

/**
 * Parse argv[2..] against one subcommand's flags: @p valueFlags take
 * "--name=<value>", @p switchFlags are a bare "--name".  --help prints
 * the usage and exits 0.
 */
Args
parseArgs(int argc, char **argv, std::set<std::string> valueFlags,
          std::set<std::string> switchFlags)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        }
        if (arg.empty() || arg[0] != '-') {
            args.positional.push_back(arg);
            continue;
        }
        size_t eq = arg.find('=');
        std::string name =
            arg.substr(2, eq == std::string::npos ? eq : eq - 2);
        if (eq != std::string::npos && valueFlags.count(name)) {
            if (eq + 1 == arg.size())
                tps_fatal("--%s needs a value", name.c_str());
            args.values[name] = arg.substr(eq + 1);
        } else if (eq == std::string::npos && switchFlags.count(name)) {
            args.switches.insert(name);
        } else {
            tps_fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    return args;
}

/** Read and parse one JSON manifest; fatal on any problem. */
obs::Json
readManifest(const std::string &path)
{
    try {
        return obs::readJsonFile(path);
    } catch (const SimError &e) {
        tps_fatal("cannot read manifest %s: %s", path.c_str(), e.what());
    }
}

/** Write @p bytes to @p path; fatal when it cannot. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        tps_fatal("cannot open '%s' for writing", path.c_str());
    os << bytes;
    if (!os)
        tps_fatal("write to '%s' failed", path.c_str());
}

void
printJson(const obs::Json &j)
{
    std::printf("%s\n", j.dump(2).c_str());
}

// ---------------------------------------------------------------------
// tps merge
// ---------------------------------------------------------------------

obs::Json
mergeReportJson(const obs::MergeResult &res)
{
    obs::Json j = obs::Json::object();
    j["format"] = std::string("tps-merge-report");
    j["bench"] = res.bench;
    j["shardCount"] = res.shardCount;
    j["gridFingerprint"] = res.gridFingerprint;
    obs::Json present = obs::Json::array();
    for (unsigned s : res.shardsPresent)
        present.push(uint64_t(s));
    j["shardsPresent"] = std::move(present);
    obs::Json missing = obs::Json::array();
    for (unsigned s : res.shardsMissing)
        missing.push(uint64_t(s));
    j["shardsMissing"] = std::move(missing);
    j["cells"] = uint64_t(res.cells);
    j["okCells"] = uint64_t(res.okCells);
    j["duplicates"] = uint64_t(res.duplicates);
    obs::Json holes = obs::Json::array();
    for (const obs::MergeHole &hole : res.holes) {
        obs::Json h = obs::Json::object();
        h["label"] = hole.label;
        h["seed"] = hole.seed;
        h["status"] = hole.status;
        h["shard"] = int64_t(hole.shard);
        h["source"] = hole.source;
        holes.push(std::move(h));
    }
    j["holes"] = std::move(holes);
    j["complete"] = res.holes.empty() && res.shardsMissing.empty();
    return j;
}

void
printHoles(const obs::MergeResult &res)
{
    std::fprintf(stderr, "%zu hole(s):\n", res.holes.size());
    for (const obs::MergeHole &hole : res.holes) {
        std::fprintf(stderr, "  hole: %s", hole.label.c_str());
        if (hole.seed != 0) {
            std::fprintf(stderr, " (seed %llu)",
                         static_cast<unsigned long long>(hole.seed));
        }
        std::fprintf(stderr, " %s", hole.status.c_str());
        if (hole.shard >= 0)
            std::fprintf(stderr, ", owned by shard %d", hole.shard);
        if (!hole.source.empty())
            std::fprintf(stderr, ", recorded in %s", hole.source.c_str());
        std::fprintf(stderr, "\n");
    }
}

int
cmdMerge(const Args &args)
{
    const std::vector<std::string> &inputs = args.positional;
    if (inputs.empty())
        tps_fatal("no input manifests (usage: tps merge "
                  "<partial.json>... [--out=<path>])");
    std::vector<obs::Json> manifests;
    for (const std::string &path : inputs)
        manifests.push_back(readManifest(path));
    obs::MergeResult res = obs::mergeManifests(manifests, inputs);

    std::string out = args.value("out");
    bool json = args.has("json");
    if (!out.empty())
        writeFile(out, res.manifest.dump(2) + "\n");
    else if (!json)
        printJson(res.manifest);  // canonical manifest to stdout

    if (json) {
        printJson(mergeReportJson(res));
    } else {
        std::fprintf(stderr,
                     "merged %zu input(s): bench %s, %zu cells "
                     "(%zu ok), %zu duplicate cop%s resolved\n",
                     inputs.size(), res.bench.c_str(), res.cells,
                     res.okCells, res.duplicates,
                     res.duplicates == 1 ? "y" : "ies");
        if (res.shardCount > 1) {
            std::fprintf(stderr, "shards present: %zu of %u\n",
                         res.shardsPresent.size(), res.shardCount);
        }
        for (unsigned s : res.shardsMissing)
            std::fprintf(stderr, "  shard %u contributed no manifest\n",
                         s);
        if (!res.holes.empty())
            printHoles(res);
        if (!out.empty())
            std::fprintf(stderr, "wrote merged manifest to %s\n",
                         out.c_str());
    }

    bool incomplete = !res.holes.empty() || !res.shardsMissing.empty();
    if (args.has("require-complete") && incomplete) {
        std::fprintf(stderr,
                     "merge incomplete (--require-complete): %zu "
                     "hole(s), %zu missing shard(s)\n",
                     res.holes.size(), res.shardsMissing.size());
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------
// tps watch
// ---------------------------------------------------------------------

/** All parseable JSON files in @p dir (heartbeat filter comes later). */
void
scanHeartbeats(const std::string &dir, std::vector<obs::Json> *beats,
               std::vector<std::string> *sources)
{
    DIR *d = opendir(dir.c_str());
    if (!d)
        tps_fatal("cannot open watch directory %s", dir.c_str());
    std::vector<std::string> names;
    while (struct dirent *ent = readdir(d)) {
        std::string name = ent->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
            names.push_back(name);
        }
    }
    closedir(d);
    std::sort(names.begin(), names.end());
    for (const std::string &name : names) {
        std::string path = dir + "/" + name;
        try {
            beats->push_back(obs::readJsonFile(path));
            sources->push_back(path);
        } catch (const SimError &) {
            // A file mid-write or foreign JSON is not an error; the
            // next scan will pick it up.
        }
    }
}

int
cmdWatch(const Args &args)
{
    if (args.positional.size() != 1)
        tps_fatal("expected one watch directory, got %zu argument(s) "
                  "(try --help)", args.positional.size());
    const std::string &dir = args.positional[0];
    // Bounded above too: sleep_for overflows on huge durations and
    // returns at once, which would turn the refresh into a busy loop.
    double interval = 2.0;
    if (std::string text = args.value("interval"); !text.empty()) {
        if (!parseF64(text.c_str(), &interval) || interval <= 0 ||
            interval > 86400) {
            tps_fatal("bad --interval value '%s'", text.c_str());
        }
    }
    bool once = args.has("once");
    bool tty = isatty(fileno(stdout));
    while (true) {
        std::vector<obs::Json> beats;
        std::vector<std::string> sources;
        scanHeartbeats(dir, &beats, &sources);
        uint64_t now =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
        obs::HealthView view = obs::buildHealthView(beats, sources, now);

        if (args.has("json")) {
            printJson(view.toJson());
        } else {
            if (tty && !once)
                std::fputs("\033[H\033[2J", stdout);
            if (view.shards.empty())
                std::printf("no heartbeats in %s yet\n", dir.c_str());
            else
                std::fputs(view.render().c_str(), stdout);
        }
        std::fflush(stdout);

        if (once)
            return view.shards.empty() ? 1 : 0;
        if (view.allFinished) {
            std::fprintf(stderr, "all %u shard(s) finished\n",
                         view.shardCount);
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
}

// ---------------------------------------------------------------------
// tps report
// ---------------------------------------------------------------------

int
cmdReport(const Args &args)
{
    const std::vector<std::string> &inputs = args.positional;
    if (inputs.empty())
        tps_fatal("no manifests given (try --help)");
    std::vector<obs::Json> manifests;
    for (const std::string &path : inputs)
        manifests.push_back(readManifest(path));
    obs::ReportOptions opts;
    if (args.values.count("baseline"))
        opts.baselineDesign = args.value("baseline");
    obs::Report rep = obs::buildReport(manifests, inputs, opts);

    std::string csv = args.value("csv");
    std::string md = args.value("md");
    for (const auto &[path, bytes] :
         {std::pair{csv, rep.csv}, std::pair{md, rep.markdown}}) {
        if (path.empty())
            continue;
        writeFile(path, bytes);
        std::printf("wrote %s\n", path.c_str());
    }
    if (csv.empty() && md.empty())
        std::fputs(rep.markdown.c_str(), stdout);
    std::fprintf(stderr, "%zu cells, %zu holes\n", rep.cells, rep.holes);
    return 0;
}

// ---------------------------------------------------------------------
// tps analyze
// ---------------------------------------------------------------------

/**
 * The cell --cell names, or the only cell when it is omitted.  A bench
 * that plans one cell several times records identical copies under
 * one label; the first is used.
 */
const obs::TraceCell &
selectCell(const obs::TraceFile &file, const std::string &label)
{
    std::vector<const obs::TraceCell *> matches;
    bool ambiguous = false;
    for (const obs::TraceCell &cell : file.cells) {
        if (!label.empty() && cell.label != label)
            continue;
        ambiguous = ambiguous || (!matches.empty() &&
                                  cell.label != matches[0]->label);
        matches.push_back(&cell);
    }
    if (matches.empty())
        tps_fatal("no cell matches --cell=%s", label.c_str());
    if (ambiguous) {
        std::fprintf(stderr, "ambiguous cell; candidates:\n");
        for (const obs::TraceCell *cell : matches)
            std::fprintf(stderr, "  --cell=%s\n", cell->label.c_str());
        tps_fatal("pick one with --cell");
    }
    return *matches[0];
}

void
analyzeSummary(const obs::TraceFile &file)
{
    std::printf("%-40s %20s %12s %12s %12s\n", "cell", "seed", "events",
                "misses", "walks");
    for (const obs::TraceCell &cell : file.cells) {
        obs::CellAnalysis a = obs::analyzeCell(cell);
        std::printf("%-40s %20" PRIu64 " %12zu %12" PRIu64
                    " %12" PRIu64 "\n",
                    cell.label.c_str(), cell.seed, cell.events.size(),
                    a.tlbMisses, a.walkEvents);
    }
}

void
analyzeDump(const obs::TraceCell &cell)
{
    std::printf("# cell %s seed %" PRIu64 " (%zu events)\n",
                cell.label.c_str(), cell.seed, cell.events.size());
    for (const obs::Event &e : cell.events) {
        std::printf("%12" PRIu64 " %-14s va=0x%" PRIx64 " a=%" PRIu64
                    " b=%" PRIu64 " c=%" PRIu64 " d=%" PRIu64 "\n",
                    e.time, obs::eventTypeName(e.type), e.va, e.a, e.b,
                    e.c, e.d);
    }
}

void
printHistogram(const char *name, const Histogram &h)
{
    if (h.total() == 0) {
        std::printf("%s: empty\n", name);
        return;
    }
    std::printf("%s: n=%" PRIu64 " p50=%" PRIu64 " p95=%" PRIu64
                " p99=%" PRIu64,
                name, h.total(), h.p50(), h.p95(), h.p99());
    if (h.underflow() || h.overflow())
        std::printf(" underflow=%" PRIu64 " overflow=%" PRIu64,
                    h.underflow(), h.overflow());
    std::printf("\n");
}

void
analyzeReport(const obs::TraceCell &cell, const Args &args)
{
    obs::CellAnalysis a = obs::analyzeCell(cell);
    uint64_t top = 20;
    if (std::string text = args.value("top"); !text.empty()) {
        if (!parseU64(text.c_str(), &top) || top == 0)
            tps_fatal("bad --top value '%s'", text.c_str());
    }

    const obs::Json *mcell = nullptr;
    obs::Json manifest;
    if (std::string path = args.value("manifest"); !path.empty()) {
        manifest = readManifest(path);
        mcell = obs::findManifestCell(manifest, a.label, a.seed);
        if (!mcell)
            tps_fatal("manifest %s has no cell %s seed %" PRIu64,
                      path.c_str(), a.label.c_str(), a.seed);
    }
    // Throws on a trace/manifest miss-count mismatch.
    std::vector<obs::ResidualRow> residual =
        obs::residualMisses(a, mcell);

    if (args.has("json")) {
        obs::Json j = obs::analysisToJson(a, top);
        obs::Json res = obs::Json::array();
        for (const obs::ResidualRow &row : residual) {
            obs::Json r = obs::Json::object();
            r["pageBits"] = row.pageBits;
            r["misses"] = row.misses;
            r["shareOfMisses"] = row.shareOfMisses;
            r["walkRefShare"] = row.walkRefShare;
            res.push(std::move(r));
        }
        j["residualMisses"] = std::move(res);
        j["manifestVerified"] = mcell != nullptr;
        printJson(j);
        return;
    }

    std::printf("== %s (seed %" PRIu64 ") ==\n", a.label.c_str(),
                a.seed);
    std::printf("measured accesses:     %" PRIu64 "\n", a.accesses);
    std::printf("L1 TLB misses:         %" PRIu64 "%s\n", a.tlbMisses,
                mcell ? "  (matches manifest mmu.l1.misses)" : "");
    std::printf("  L2/range hits:       %" PRIu64 "\n", a.l2Hits);
    std::printf("  full walks:          %" PRIu64 "\n", a.walks);
    std::printf("walk memory refs:      %" PRIu64 "\n", a.walkMemRefs);
    std::printf("walk faults:           %" PRIu64 "\n", a.walkFaults);
    std::printf("os: maps=%" PRIu64 " unmaps=%" PRIu64 " faults=%" PRIu64
                " reserves=%" PRIu64 " promotes=%" PRIu64
                " compact-moves=%" PRIu64 "\n",
                a.osMaps, a.osUnmaps, a.osFaults, a.osReserves,
                a.osPromotes, a.osCompactMoves);
    std::printf("tlb: shootdowns=%" PRIu64 " flushes=%" PRIu64 "\n\n",
                a.tlbShootdowns, a.tlbFlushes);

    std::printf("residual misses by page size:\n");
    std::printf("  %10s %12s %8s %10s\n", "page", "misses", "share",
                "walk-refs");
    for (const obs::ResidualRow &row : residual) {
        std::string page =
            row.pageBits ? std::to_string(1ull << (row.pageBits - 10)) +
                               " KiB"
                         : "unknown";
        std::printf("  %10s %12" PRIu64 " %7.2f%% %9.2f%%\n",
                    page.c_str(), row.misses,
                    100.0 * row.shareOfMisses,
                    100.0 * row.walkRefShare);
    }
    std::printf("\n");

    std::printf("misses by VMA:\n");
    std::printf("  %6s %18s %14s %12s %12s\n", "vma", "base", "bytes",
                "misses", "walks");
    for (const obs::VmaBreakdown &v : a.perVma) {
        if (v.misses == 0)
            continue;
        std::printf("  %6" PRIu64 " 0x%016" PRIx64 " %14" PRIu64
                    " %12" PRIu64 " %12" PRIu64 "\n",
                    v.vmaId, v.base, v.bytes, v.misses, v.walks);
    }
    std::printf("\n");

    size_t n = std::min(top, a.hotRegions.size());
    std::printf("top %zu hot 4 KiB regions (of %zu with misses):\n", n,
                a.hotRegions.size());
    std::printf("  %18s %12s %12s\n", "region", "misses", "walks");
    for (size_t i = 0; i < n; ++i) {
        const obs::HotRegion &r = a.hotRegions[i];
        std::printf("  0x%016" PRIx64 " %12" PRIu64 " %12" PRIu64 "\n",
                    r.base, r.misses, r.walks);
    }
    std::printf("\n");

    printHistogram("walk latency (cycles)", a.walkLatency);
    printHistogram("miss interarrival (accesses)", a.missInterarrival);
    printHistogram("walk MMU-cache hit depth", a.walkHitDepth);
}

int
cmdAnalyze(const Args &args)
{
    if (args.positional.size() != 2) {
        tps_fatal("expected <summary|report|dump> <trace-file>, got %zu "
                  "positional argument(s) (try --help)",
                  args.positional.size());
    }
    const std::string &command = args.positional[0];
    const std::string &tracePath = args.positional[1];
    obs::TraceFile file = obs::readTraceFile(tracePath);
    if (file.cells.empty())
        tps_fatal("%s contains no cells", tracePath.c_str());
    if (command == "summary")
        analyzeSummary(file);
    else if (command == "dump")
        analyzeDump(selectCell(file, args.value("cell")));
    else if (command == "report")
        analyzeReport(selectCell(file, args.value("cell")), args);
    else
        tps_fatal("unknown command '%s' (try --help)", command.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sub = argc > 1 ? argv[1] : "";
    // A figure parses its own flags: argv[2] is its name, argv[3..] the
    // flags a figure binary takes.
    if (sub == "fig")
        return bench::runFigure(argc > 2 ? argv[2] : "", argc - 2, argv + 2);
    // Library code throws SimError on unreadable or malformed inputs;
    // the CLI surfaces that as the standard one-line fatal, never as
    // an uncaught-exception abort.
    try {
        if (sub == "merge")
            return cmdMerge(
                parseArgs(argc, argv, {"out"}, {"json", "require-complete"}));
        if (sub == "watch")
            return cmdWatch(
                parseArgs(argc, argv, {"interval"}, {"once", "json"}));
        if (sub == "report")
            return cmdReport(
                parseArgs(argc, argv, {"csv", "md", "baseline"}, {}));
        if (sub == "analyze")
            return cmdAnalyze(parseArgs(
                argc, argv, {"cell", "manifest", "top"}, {"json"}));
    } catch (const SimError &e) {
        tps_fatal("%s", e.what());
    }
    if (sub == "--help") {
        std::fputs(kUsage, stdout);
        return 0;
    }
    tps_fatal("expected a subcommand: fig, merge, watch, report or analyze, "
              "got '%s' (try --help)", sub.c_str());
}
