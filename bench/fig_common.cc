#include "fig_common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "core/experiment_runner.hh"
#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "obs/resume.hh"
#include "obs/run_manifest.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace tps::bench {

namespace {

/** What one figure run collects on its way to the artifacts. */
struct Sweep
{
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    //! Wall-clock start for the shard provenance's run span.
    uint64_t startedUnixMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::unique_ptr<obs::SweepMonitor> monitor;
    obs::ResumeLog resume;  //!< empty unless --resume found a manifest
    bool resuming = false;  //!< --resume loaded a usable manifest
    //! --shard: the full planned grid plus this process's slice.
    obs::ShardPlan plan;
    //! Per cell: the first cell of the grid with the same identity
    //! (itself when unique).  Only first copies are planned and run;
    //! every copy gets the first copy's result.
    std::vector<size_t> firstCopy;
    std::vector<bool> owned;  //!< per cell: this process runs it
    std::vector<obs::CellArtifact> artifacts;
    //! --event-trace: per-cell event traces.
    std::vector<obs::TraceCell> traceCells;
    //! --profile: sweep-wide simulator self-profile totals.
    obs::ProfileRegistry profileTotal;
};

/** Parse the flags runFigure() documents over the defaults in @p opts. */
FigOptions
parseArgs(int argc, char **argv, FigOptions opts)
{
    core::RunOptions &run = opts.run;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0) {
            if (!parseF64(arg + 8, &run.scale) || run.scale <= 0)
                tps_fatal("bad --scale value '%s'", arg + 8);
        } else if (std::strncmp(arg, "--phys-gb=", 10) == 0) {
            uint64_t gb = 0;
            if (!parseU64(arg + 10, &gb) || gb == 0 || gb > (1u << 20))
                tps_fatal("bad --phys-gb value '%s'", arg + 10);
            run.physBytes = gb << 30;
        } else if (std::strcmp(arg, "--csv") == 0) {
            opts.csv = true;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            uint64_t jobs = 0;
            if (!parseU64(arg + 7, &jobs) || jobs == 0 ||
                jobs > 4096) {
                tps_fatal("bad --jobs value '%s'", arg + 7);
            }
            opts.jobs = static_cast<unsigned>(jobs);
        } else if (std::strncmp(arg, "--benchmarks=", 13) == 0) {
            std::string list = arg + 13;
            size_t before = opts.benchmarks.size();
            size_t pos = 0;
            while (pos != std::string::npos) {
                size_t comma = list.find(',', pos);
                std::string name =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (!name.empty())
                    opts.benchmarks.push_back(name);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
            if (opts.benchmarks.size() == before)
                tps_fatal("--benchmarks needs a value (a,b,c)");
        } else if (std::strncmp(arg, "--epochs=", 9) == 0) {
            if (!parseU64(arg + 9, &run.epochAccesses) ||
                run.epochAccesses == 0) {
                tps_fatal("bad --epochs value '%s'", arg + 9);
            }
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            opts.statsJson = arg + 13;
            if (opts.statsJson.empty())
                tps_fatal("--stats-json needs a path");
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.progress = true;
        } else if (std::strcmp(arg, "--paranoid") == 0) {
            run.paranoid = true;
        } else if (std::strncmp(arg, "--check-every=", 14) == 0) {
            if (!parseU64(arg + 14, &run.checkEvery) ||
                run.checkEvery == 0) {
                tps_fatal("bad --check-every value '%s'", arg + 14);
            }
        } else if (std::strncmp(arg, "--cell-timeout=", 15) == 0) {
            if (!parseF64(arg + 15, &run.cellTimeoutSeconds) ||
                run.cellTimeoutSeconds <= 0) {
                tps_fatal("bad --cell-timeout value '%s'", arg + 15);
            }
        } else if (std::strncmp(arg, "--retries=", 10) == 0) {
            uint64_t retries = 0;
            if (!parseU64(arg + 10, &retries) || retries > 100)
                tps_fatal("bad --retries value '%s'", arg + 10);
            opts.retries = static_cast<unsigned>(retries);
        } else if (std::strcmp(arg, "--resume") == 0) {
            opts.resume = true;
        } else if (std::strncmp(arg, "--event-trace=", 14) == 0) {
            opts.eventTracePath = arg + 14;
            if (opts.eventTracePath.empty())
                tps_fatal("--event-trace needs a path");
        } else if (std::strcmp(arg, "--profile") == 0) {
            opts.profile = true;
        } else if (std::strcmp(arg, "--mem-telemetry") == 0) {
            run.memTelemetry = true;
        } else if (std::strncmp(arg, "--footprint=", 12) == 0) {
            if (!parseSize(arg + 12, &run.footprintBytes) ||
                run.footprintBytes == 0) {
                tps_fatal("bad --footprint value '%s' (want e.g. "
                          "512m, 64g, 1t)", arg + 12);
            }
        } else if (std::strcmp(arg, "--dense-state") == 0) {
            run.denseState = true;
        } else if (std::strncmp(arg, "--shard=", 8) == 0) {
            if (!obs::parseShardSpec(arg + 8, &opts.shard)) {
                tps_fatal("bad --shard value '%s' (want i/N with "
                          "0 <= i < N and N <= %u)",
                          arg + 8, obs::kMaxShards);
            }
        } else if (std::strncmp(arg, "--heartbeat=", 12) == 0) {
            opts.heartbeatPath = arg + 12;
            if (opts.heartbeatPath.empty())
                tps_fatal("--heartbeat needs a path");
        } else if (std::strncmp(arg, "--heartbeat-interval=", 21) == 0) {
            if (!parseF64(arg + 21, &opts.heartbeatInterval) ||
                opts.heartbeatInterval <= 0) {
                tps_fatal("bad --heartbeat-interval value '%s'",
                          arg + 21);
            }
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf(
                "options: --scale=<f> --phys-gb=<n> --csv --jobs=<n> "
                "--benchmarks=a,b,c --epochs=<n> --stats-json=<path> "
                "--progress --paranoid --check-every=<n> "
                "--cell-timeout=<sec> --retries=<n> --resume "
                "--event-trace=<path> --profile "
                "--mem-telemetry --footprint=<size[kmgt]> "
                "--dense-state --shard=i/N --heartbeat=<path> "
                "--heartbeat-interval=<sec>\n");
            std::exit(0);
        } else {
            tps_fatal("unknown option '%s' (try --help)", arg);
        }
    }
    return opts;
}

/** The row of figures() named @p name; fatal, listing them, if none. */
const Figure &
findFigure(const std::string &name)
{
    std::string names;
    for (const Figure &fig : figures()) {
        if (fig.name == name)
            return fig;
        names += (names.empty() ? "" : ", ") + fig.name;
    }
    tps_fatal("unknown figure '%s' (one of: %s)", name.c_str(),
              names.c_str());
}

/**
 * Plan the grid, then set up the monitor and the --resume log.  A cell
 * whose identity an earlier cell already has is a copy: it is planned,
 * run and recorded once.  Every shard plans the full grid, so the
 * fingerprints match, and keeps only the cells it owns.
 */
void
initSweep(Sweep &sweep, const Figure &fig, const FigOptions &opts,
          const std::vector<Cell> &cells)
{
    sweep.plan = obs::ShardPlan(opts.shard);
    std::map<std::string, size_t> first;  // cell identity -> first copy
    for (size_t i = 0; i < cells.size(); ++i) {
        auto [it, unique] =
            first.emplace(obs::cellIdentity(cells[i].run), i);
        sweep.firstCopy.push_back(it->second);
        sweep.owned.push_back(unique && sweep.plan.planCell(cells[i].run));
    }
    if (opts.progress || !opts.heartbeatPath.empty()) {
        obs::SweepMonitor::Config mcfg;
        mcfg.bench = fig.name;
        mcfg.progress = opts.progress;
        mcfg.heartbeatPath = opts.heartbeatPath;
        mcfg.heartbeatIntervalSeconds = opts.heartbeatInterval;
        mcfg.shard = opts.shard;
        if (opts.shard.active())
            mcfg.gridFingerprint = sweep.plan.gridFingerprint();
        sweep.monitor = std::make_unique<obs::SweepMonitor>(mcfg);
    }
    if (opts.resume) {
        if (opts.statsJson.empty())
            tps_fatal("--resume needs --stats-json=<path> (the manifest "
                      "to resume from and rewrite)");
        sweep.resuming = sweep.resume.load(opts.statsJson);
        if (!sweep.resuming) {
            std::fprintf(stderr,
                         "no usable manifest at %s (%s); running all "
                         "cells\n",
                         opts.statsJson.c_str(),
                         sweep.resume.error().c_str());
        }
    }
}

/**
 * Run the figure's whole grid as one sweep on an opts.jobs-wide
 * ExperimentRunner; see CellResults for what comes back.
 */
CellResults
runCells(Sweep &sweep, const FigOptions &opts,
         const std::vector<Cell> &cells)
{
    // A first copy captures a census when any of its copies asks.
    std::vector<bool> census(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].census)
            census[sweep.firstCopy[i]] = true;
    }
    // Restore completed cells from the prior manifest; only the rest
    // go to the pool.  The manifest holds no census, so census cells
    // always run.  Unowned cells (and copies) are skipped before the
    // resume lookup: --resume + --shard restores only cells this shard
    // owns.
    std::vector<obs::CellArtifact> arts(cells.size());
    CellResults results(cells.size());
    std::vector<core::RunOptions> to_run;
    std::vector<size_t> to_run_idx;
    core::SweepPolicy policy;
    size_t owned = 0;
    size_t restored = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!sweep.owned[i])
            continue;
        ++owned;
        const obs::ResumedCell *prior =
            census[i] ? nullptr : sweep.resume.find(cells[i].run);
        if (prior) {
            ++restored;
            // A Resumed artifact carries the prior cell JSON verbatim.
            obs::CellArtifact &cell = arts[i];
            cell.options = cells[i].run;
            cell.stats = prior->stats;
            cell.status = core::CellStatus::Resumed;
            cell.attempts = 0;
            cell.restored = prior->pure;
            results[i] = CellResult{cell.stats, {}};
        } else {
            to_run.push_back(cells[i].run);
            to_run_idx.push_back(i);
            policy.census.push_back(census[i]);
        }
    }
    if (sweep.resuming) {
        std::fprintf(stderr, "resuming: %zu of %zu cells restored from %s\n",
                     restored, owned, opts.statsJson.c_str());
    }

    core::ExperimentRunner runner(opts.jobs);
    runner.setMonitor(sweep.monitor.get());
    policy.retries = opts.retries;
    policy.eventTrace = !opts.eventTracePath.empty();
    policy.profile = opts.profile;
    std::vector<core::CellOutcome> outcomes =
        runner.runGuarded(to_run, policy);
    for (size_t j = 0; j < outcomes.size(); ++j) {
        obs::CellArtifact &cell = arts[to_run_idx[j]];
        core::CellOutcome &out = outcomes[j];
        cell.options = to_run[j];
        cell.stats = std::move(out.stats);
        cell.status = out.status;
        cell.error = std::move(out.error);
        cell.errorKind = std::move(out.errorKind);
        cell.attempts = out.attempts;
        cell.wallSeconds = out.seconds;
        if (cell.status == core::CellStatus::Ok) {
            results[to_run_idx[j]] = CellResult{
                cell.stats, out.census ? std::move(*out.census)
                                       : core::Census{}};
        } else {
            std::fprintf(stderr,
                         "cell %s %s after %u attempt(s): %s\n",
                         core::cellLabel(cell.options).c_str(),
                         core::cellStatusName(cell.status),
                         cell.attempts, cell.error.c_str());
        }
        // The container writer sorts cells by (label, seed), so the
        // on-disk trace is byte-stable across --jobs counts and sweep
        // scheduling.  (Cells restored by --resume were not re-run, so
        // they contribute no trace.)
        if (out.trace) {
            sweep.traceCells.push_back(
                obs::TraceCell{core::cellLabel(to_run[j]),
                               core::runSeed(to_run[j]),
                               out.trace->takeEvents()});
        }
        if (out.profile)
            sweep.profileTotal.merge(*out.profile);
    }

    // Record in input order so the manifest layout is independent of
    // pool scheduling (the golden test compares it across --jobs).
    // Unowned cells and copies get no manifest entry; a copy gets its
    // first copy's result.
    for (size_t i = 0; i < arts.size(); ++i) {
        if (sweep.owned[i])
            sweep.artifacts.push_back(std::move(arts[i]));
        if (sweep.firstCopy[i] != i)
            results[i] = results[sweep.firstCopy[i]];
    }
    return results;
}

/**
 * Write the artifacts the command line asked for (--stats-json
 * manifest, --event-trace container, --profile stderr report) and
 * return the exit status runFigure() documents.
 */
int
finishSweep(Sweep &sweep, const Figure &fig, const FigOptions &opts)
{
    if (opts.shard.active()) {
        std::fprintf(stderr,
                     "shard %u/%u: owned %zu of %zu planned units "
                     "(grid %s)\n",
                     opts.shard.index, opts.shard.count,
                     sweep.plan.ownedUnits(), sweep.plan.plannedUnits(),
                     sweep.plan.gridFingerprint().c_str());
    }
    if (!opts.statsJson.empty()) {
        obs::ManifestInfo info;
        info.bench = fig.name;
        info.jobs = opts.jobs;
        info.wallSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               sweep.start)
                               .count();
        if (opts.shard.active()) {
            // Host-only provenance for `tps merge`: which slice this
            // partial manifest covers, and the run's wall-clock span.
            info.shard = sweep.plan.provenanceJson();
            info.shard["startedUnixMs"] = sweep.startedUnixMs;
            info.shard["wallSeconds"] = info.wallSeconds;
        }
        obs::writeManifest(opts.statsJson, info, sweep.artifacts);
        std::fprintf(stderr, "wrote %zu-cell manifest to %s\n",
                     sweep.artifacts.size(), opts.statsJson.c_str());
    }
    if (!opts.eventTracePath.empty()) {
        if (sweep.traceCells.empty()) {
            tps_warn("--event-trace=%s: no cells were traced (resumed "
                     "cells record no events); writing an empty "
                     "container",
                     opts.eventTracePath.c_str());
        }
        size_t n = sweep.traceCells.size();
        obs::writeTraceFile(opts.eventTracePath,
                            std::move(sweep.traceCells));
        std::fprintf(stderr, "wrote %zu-cell event trace to %s\n", n,
                     opts.eventTracePath.c_str());
    }
    if (opts.profile) {
        // Host wall-clock numbers: informative, never deterministic,
        // never part of any manifest.
        std::fprintf(stderr, "simulator self-profile (host time):\n");
        for (unsigned i = 0; i < obs::kProfPhaseCount; ++i) {
            auto phase = static_cast<obs::ProfPhase>(i);
            const auto &e = sweep.profileTotal.entry(phase);
            if (e.calls == 0)
                continue;
            std::fprintf(stderr,
                         "  %-14s %12llu calls %10.3f ms  %8.1f ns/call\n",
                         obs::profPhaseName(phase),
                         static_cast<unsigned long long>(e.calls),
                         e.ns / 1e6,
                         e.calls ? double(e.ns) / double(e.calls) : 0.0);
        }
    }
    size_t failed = 0;
    for (const obs::CellArtifact &cell : sweep.artifacts) {
        if (cell.status == core::CellStatus::Failed ||
            cell.status == core::CellStatus::Timeout) {
            ++failed;
        }
    }
    if (failed == 0)
        return 0;
    std::fprintf(stderr, "%zu cell(s) failed or timed out; their rows "
                         "print as %s\n", failed, kHole);
    // A shard's failures are holes in its partial manifest, which
    // `tps merge --require-complete` reports for the whole sweep.
    return opts.shard.active() ? 0 : 1;
}

} // namespace

int
runFigure(const std::string &name, int argc, char **argv)
{
    const Figure &fig = findFigure(name);
    FigOptions opts = parseArgs(argc, argv, fig.defaults);
    std::vector<Cell> cells = fig.cells(opts);
    Sweep sweep;
    initSweep(sweep, fig, opts, cells);
    std::printf("== %s: %s ==\n", fig.id.c_str(), fig.title.c_str());
    std::printf("paper: %s\n\n", fig.paper.c_str());
    std::fflush(stdout);
    CellResults results = runCells(sweep, opts, cells);
    fig.render(opts, cells, results);
    return finishSweep(sweep, fig, opts);
}

} // namespace tps::bench
