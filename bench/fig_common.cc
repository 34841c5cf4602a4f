#include "fig_common.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/experiment_runner.hh"
#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "obs/resume.hh"
#include "obs/run_manifest.hh"
#include "sim/perf_model.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "workloads/registry.hh"

namespace tps::bench {

namespace {

/**
 * Bench-wide observability state.  Each bench is one main program, so
 * a single process-wide context (guarded for the pooled recorders) is
 * the natural owner of the monitor and the collected artifacts.
 */
struct BenchContext
{
    std::string name;
    std::chrono::steady_clock::time_point start;
    //! Wall-clock start for the shard provenance's run span.
    uint64_t startedUnixMs = 0;
    std::unique_ptr<obs::SweepMonitor> monitor;
    std::mutex mu;
    std::vector<obs::CellArtifact> artifacts;
    obs::ResumeLog resume;  //!< empty unless --resume found a manifest
    //! --shard: the full planned grid plus this process's slice.
    obs::ShardPlan plan;
    //! --event-trace: per-cell event traces collected by runCells.
    std::vector<obs::TraceCell> traceCells;
    //! --profile: sweep-wide simulator self-profile totals.
    obs::ProfileRegistry profileTotal;
};

BenchContext g_bench;

/** What a table prints for a value whose cells did not all run. */
constexpr const char *kHole = "—";

/**
 * Push the (re)planned grid's shard identity into the monitor, so
 * heartbeats and traces carry the current fingerprint.  Planning only
 * happens on the submitting thread, between sweeps, so reading the
 * plan here is race-free.
 */
void
syncShardMonitor()
{
    const obs::ShardSpec &spec = g_bench.plan.spec();
    if (g_bench.monitor && spec.active()) {
        g_bench.monitor->setShard(spec.index, spec.count,
                                  g_bench.plan.gridFingerprint());
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

using core::cellLabel;

} // namespace

void
initBench(const std::string &name, const FigOptions &opts)
{
    g_bench.name = name;
    g_bench.start = std::chrono::steady_clock::now();
    g_bench.startedUnixMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    g_bench.plan = obs::ShardPlan(opts.shard);
    if (!opts.tracePath.empty() || opts.progress ||
        !opts.heartbeatPath.empty()) {
        obs::SweepMonitor::Config mcfg;
        mcfg.bench = name;
        mcfg.progress = opts.progress;
        mcfg.heartbeatPath = opts.heartbeatPath;
        mcfg.heartbeatIntervalSeconds = opts.heartbeatInterval;
        g_bench.monitor = std::make_unique<obs::SweepMonitor>(mcfg);
        syncShardMonitor();
    }
    if (opts.resume) {
        if (opts.statsJson.empty())
            tps_fatal("--resume needs --stats-json=<path> (the manifest "
                      "to resume from and rewrite)");
        if (g_bench.resume.load(opts.statsJson)) {
            std::fprintf(stderr,
                         "resuming: %zu completed cells in %s\n",
                         g_bench.resume.size(), opts.statsJson.c_str());
        } else {
            std::fprintf(stderr,
                         "no usable manifest at %s (%s); running all "
                         "cells\n",
                         opts.statsJson.c_str(),
                         g_bench.resume.error().c_str());
        }
    }
}

int
finishBench(const FigOptions &opts)
{
    if (opts.shard.active()) {
        std::fprintf(stderr,
                     "shard %u/%u: owned %zu of %zu planned units "
                     "(grid %s)\n",
                     opts.shard.index, opts.shard.count,
                     g_bench.plan.ownedUnits(),
                     g_bench.plan.plannedUnits(),
                     g_bench.plan.gridFingerprint().c_str());
    }
    if (!opts.statsJson.empty()) {
        obs::ManifestInfo info;
        info.bench = g_bench.name;
        info.jobs = opts.jobs;
        info.wallSeconds = secondsSince(g_bench.start);
        if (opts.shard.active()) {
            // Host-only provenance for `tps merge`: which slice this
            // partial manifest covers, and the run's wall-clock span.
            info.shard = g_bench.plan.provenanceJson();
            info.shard["startedUnixMs"] = g_bench.startedUnixMs;
            info.shard["wallSeconds"] = info.wallSeconds;
        }
        std::lock_guard<std::mutex> lock(g_bench.mu);
        obs::writeManifest(opts.statsJson, info, g_bench.artifacts);
        std::fprintf(stderr, "wrote %zu-cell manifest to %s\n",
                     g_bench.artifacts.size(), opts.statsJson.c_str());
    }
    if (!opts.tracePath.empty() && g_bench.monitor) {
        g_bench.monitor->writeTrace(opts.tracePath);
        std::fprintf(stderr, "wrote sweep trace to %s\n",
                     opts.tracePath.c_str());
    }
    if (!opts.eventTracePath.empty()) {
        std::lock_guard<std::mutex> lock(g_bench.mu);
        if (g_bench.traceCells.empty()) {
            tps_warn("--event-trace=%s: no cells were traced (resumed "
                     "cells record no events); writing an empty "
                     "container",
                     opts.eventTracePath.c_str());
        }
        size_t n = g_bench.traceCells.size();
        obs::writeTraceFile(opts.eventTracePath,
                            std::move(g_bench.traceCells));
        std::fprintf(stderr, "wrote %zu-cell event trace to %s\n", n,
                     opts.eventTracePath.c_str());
    }
    if (opts.profile) {
        // Host wall-clock numbers: informative, never deterministic,
        // never part of any manifest.
        std::lock_guard<std::mutex> lock(g_bench.mu);
        std::fprintf(stderr, "simulator self-profile (host time):\n");
        for (unsigned i = 0; i < obs::kProfPhaseCount; ++i) {
            auto phase = static_cast<obs::ProfPhase>(i);
            const auto &e = g_bench.profileTotal.entry(phase);
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
    std::lock_guard<std::mutex> lock(g_bench.mu);
    size_t failed = 0;
    for (const obs::CellArtifact &cell : g_bench.artifacts) {
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
        } else if (std::strncmp(arg, "--epochs=", 9) == 0) {
            if (!parseU64(arg + 9, &run.epochAccesses) ||
                run.epochAccesses == 0) {
                tps_fatal("bad --epochs value '%s'", arg + 9);
            }
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            opts.statsJson = arg + 13;
            if (opts.statsJson.empty())
                tps_fatal("--stats-json needs a path");
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            opts.tracePath = arg + 8;
            if (opts.tracePath.empty())
                tps_fatal("--trace needs a path");
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
                "--trace=<path> --progress --paranoid --check-every=<n> "
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

const std::vector<std::string> &
benchList(const FigOptions &opts)
{
    if (!opts.benchmarks.empty())
        return opts.benchmarks;
    return workloads::evaluationSuite();
}

void
printHeader(const std::string &fig_id, const std::string &title,
            const std::string &paper_note)
{
    std::printf("== %s: %s ==\n", fig_id.c_str(), title.c_str());
    std::printf("paper: %s\n\n", paper_note.c_str());
    std::fflush(stdout);
}

void
printTable(const FigOptions &opts, const Table &table)
{
    if (opts.shard.active()) {
        std::cout << "partial (shard " << opts.shard.index << "/"
                  << opts.shard.count << ")\n";
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << std::endl;
}

core::RunOptions
makeRun(const FigOptions &opts, const std::string &wl,
        core::Design design)
{
    core::RunOptions run = opts.run;
    run.workload = wl;
    run.design = design;
    return run;
}

core::RunOptions
makeSmtRun(const FigOptions &opts, const std::string &wl,
           core::Design design)
{
    core::RunOptions run = makeRun(opts, wl, design);
    run.smt = true;
    // Two full workload instances need twice the physical memory.
    run.physBytes = opts.run.physBytes * 2;
    return run;
}

double
elimPercent(uint64_t baseline, uint64_t with)
{
    double e = percentEliminated(baseline, with);
    return e < 0.0 ? 0.0 : e;
}

namespace {

/** Summary rows are never printed by a shard: it owns only a slice. */
bool
printsSummaries(const FigOptions &opts)
{
    return !opts.shard.active();
}

/** @p label, plus "(k of n rows)" when some rows had no data. */
std::string
summaryLabel(const std::string &label, size_t covered, size_t rows)
{
    if (covered == rows)
        return label;
    return label + " (" + std::to_string(covered) + " of " +
           std::to_string(rows) + " rows)";
}

/** One benchmark's Fig. 13/14 speedup estimates. */
struct SpeedupRow
{
    double tps = 1.0;
    double rmm = 1.0;
    double colt = 1.0;
    double idealSpeedup = 1.0;    //!< eliminate all translation time
    double tpsFracOfIdeal = 1.0;  //!< share of ideal savings TPS gets
};

/** Cells per benchmark in the Sec. IV-B speedup pipeline. */
constexpr size_t kSpeedupCells = 7;

/**
 * The paper's Sec. IV-B estimation cells for one benchmark, in the
 * order speedupRow() reads them: the THP baseline (real, perfect-L2
 * and perfect-L1 timing), the THP-off calibration point, then TPS,
 * RMM and CoLT.  With @p smt every configuration runs with a competing
 * SMT thread (Figure 14) instead of alone (Figure 13).
 */
std::vector<core::RunOptions>
speedupCells(const FigOptions &opts, const std::string &wl, bool smt)
{
    auto cell = [&](core::Design d) {
        return smt ? makeSmtRun(opts, wl, d) : makeRun(opts, wl, d);
    };
    core::RunOptions perfect_l2 = cell(core::Design::Thp);
    perfect_l2.timing = sim::TlbTimingMode::PerfectL2;
    core::RunOptions perfect_l1 = perfect_l2;
    perfect_l1.timing = sim::TlbTimingMode::PerfectL1;
    return {cell(core::Design::Thp), perfect_l2, perfect_l1,
            cell(core::Design::Base4k), cell(core::Design::Tps),
            cell(core::Design::Rmm), cell(core::Design::Colt)};
}

/** Apply the analytic model to one benchmark's speedupCells(). */
SpeedupRow
speedupRow(const std::vector<const CellResult *> &cells)
{
    // THP baseline: real timing plus the two perfect-TLB reference
    // points and the THP-disabled calibration point.
    const sim::SimStats &thp = cells[0]->stats;
    const sim::SimStats &off = cells[3]->stats;
    double savable = sim::savablePwcFraction(
        sim::CounterPoint{off.cycles, off.walkCycles},
        sim::CounterPoint{thp.cycles, thp.walkCycles});

    auto estimate = [&](const sim::SimStats &s) {
        sim::SpeedupInputs in;
        in.baselineCycles = thp.cycles;
        in.perfectL2Cycles = cells[1]->stats.cycles;
        in.perfectL1Cycles = cells[2]->stats.cycles;
        in.baselinePwCycles = thp.walkCycles;
        in.savableFraction = savable;
        in.l1MissElimination =
            elimPercent(thp.l1TlbMisses, s.l1TlbMisses) / 100.0;
        in.walkRefElimination =
            elimPercent(thp.walkMemRefs, s.walkMemRefs) / 100.0;
        return sim::estimateSpeedup(in);
    };

    sim::SpeedupResult tps = estimate(cells[4]->stats);
    SpeedupRow row;
    row.tps = tps.speedup;
    row.rmm = estimate(cells[5]->stats).speedup;
    row.colt = estimate(cells[6]->stats).speedup;
    row.idealSpeedup = tps.idealSpeedup;
    row.tpsFracOfIdeal = tps.fractionOfIdeal();
    return row;
}

} // namespace

CellResults
runCells(const FigOptions &opts,
         const std::vector<core::RunOptions> &cells, bool census)
{
    // Plan every cell (all shards register the full grid, so the
    // fingerprints match), then keep only the owned slice.  Unowned
    // cells are skipped before the resume lookup: --resume + --shard
    // restores only cells this shard owns.
    std::vector<bool> owned(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        owned[i] = g_bench.plan.planCell(cells[i]);
    syncShardMonitor();

    // Restore completed cells from the prior manifest; only the rest
    // go to the pool.  The manifest holds no census, so census cells
    // always run.
    std::vector<obs::CellArtifact> arts(cells.size());
    CellResults results(cells.size());
    std::vector<core::RunOptions> to_run;
    std::vector<size_t> to_run_idx;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!owned[i])
            continue;
        const obs::ResumedCell *prior =
            census ? nullptr : g_bench.resume.find(cells[i]);
        if (prior) {
            // A Resumed artifact carries the prior cell JSON verbatim.
            obs::CellArtifact &cell = arts[i];
            cell.options = cells[i];
            cell.stats = prior->stats;
            cell.status = core::CellStatus::Resumed;
            cell.attempts = 0;
            cell.restored = prior->pure;
            results[i] = CellResult{cell.stats, {}};
        } else {
            to_run.push_back(cells[i]);
            to_run_idx.push_back(i);
        }
    }

    core::ExperimentRunner runner(opts.jobs);
    runner.setMonitor(g_bench.monitor.get());
    core::SweepPolicy policy;
    policy.retries = opts.retries;
    policy.eventTrace = !opts.eventTracePath.empty();
    policy.profile = opts.profile;
    policy.census = census;
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
                         cellLabel(cell.options).c_str(),
                         core::cellStatusName(cell.status),
                         cell.attempts, cell.error.c_str());
        }
        // Collect per-cell observability; the container writer sorts
        // cells by (label, seed), so the on-disk trace is byte-stable
        // across --jobs counts and sweep scheduling.  (Cells restored
        // by --resume were not re-run, so they contribute no trace.)
        if (out.trace || out.profile) {
            std::lock_guard<std::mutex> lock(g_bench.mu);
            if (out.trace) {
                g_bench.traceCells.push_back(
                    obs::TraceCell{cellLabel(to_run[j]),
                                   core::runSeed(to_run[j]),
                                   out.trace->takeEvents()});
            }
            if (out.profile)
                g_bench.profileTotal.merge(*out.profile);
        }
    }

    // Record in input order so the manifest layout is independent of
    // pool scheduling (the golden test compares it across --jobs).
    // Unowned cells get no manifest entry.
    std::lock_guard<std::mutex> lock(g_bench.mu);
    for (size_t i = 0; i < arts.size(); ++i) {
        if (owned[i])
            g_bench.artifacts.push_back(std::move(arts[i]));
    }
    return results;
}

std::vector<const CellResult *>
rowCells(const CellResults &results, size_t first, size_t n)
{
    std::vector<const CellResult *> row;
    for (size_t i = first; i < first + n; ++i) {
        if (!results[i])
            return {};
        row.push_back(&*results[i]);
    }
    return row;
}

void
addHoleRow(Table &table, const std::string &label)
{
    std::vector<std::string> row(table.columns(), kHole);
    row[0] = label;
    table.addRow(std::move(row));
}

void
addSummaryRow(const FigOptions &opts, Table &table,
              const std::string &label, size_t covered, size_t rows,
              std::vector<std::string> values)
{
    if (!printsSummaries(opts))
        return;
    if (covered == 0) {
        for (std::string &v : values)
            if (!v.empty())
                v = kHole;
    }
    values.insert(values.begin(), summaryLabel(label, covered, rows));
    table.addRow(std::move(values));
}

void
printSpeedupFigure(const FigOptions &opts, bool smt)
{
    const auto &list = benchList(opts);
    std::vector<core::RunOptions> cells;
    for (const auto &wl : list) {
        for (core::RunOptions &run : speedupCells(opts, wl, smt))
            cells.push_back(std::move(run));
    }
    CellResults results = runCells(opts, cells);

    Table table({"benchmark", "tps", "rmm", "colt", "ideal",
                 "tps %-of-ideal"});
    Summary tps_sum, rmm_sum, colt_sum, frac_sum;
    for (size_t i = 0; i < list.size(); ++i) {
        auto row_cells = rowCells(results, kSpeedupCells * i,
                                  kSpeedupCells);
        if (row_cells.empty()) {
            addHoleRow(table, list[i]);
            continue;
        }
        SpeedupRow row = speedupRow(row_cells);
        tps_sum.add(row.tps);
        rmm_sum.add(row.rmm);
        colt_sum.add(row.colt);
        frac_sum.add(100.0 * row.tpsFracOfIdeal);
        table.addRow({list[i], fmtDouble(row.tps, 3),
                      fmtDouble(row.rmm, 3), fmtDouble(row.colt, 3),
                      fmtDouble(row.idealSpeedup, 3),
                      fmtPercent(100.0 * row.tpsFracOfIdeal)});
    }
    size_t covered = tps_sum.count();
    addSummaryRow(opts, table, "mean", covered, list.size(),
                  {fmtDouble(tps_sum.mean(), 3),
                   fmtDouble(rmm_sum.mean(), 3),
                   fmtDouble(colt_sum.mean(), 3), "",
                   fmtPercent(frac_sum.mean())});
    printTable(opts, table);

    if (!printsSummaries(opts))
        return;
    std::string label =
        summaryLabel("mean improvement", covered, list.size());
    if (covered == 0) {
        std::printf("%s: %s\n", label.c_str(), kHole);
        return;
    }
    std::printf("%s: tps %+.1f%%  rmm %+.1f%%  colt %+.1f%%\n",
                label.c_str(), 100.0 * (tps_sum.mean() - 1.0),
                100.0 * (rmm_sum.mean() - 1.0),
                100.0 * (colt_sum.mean() - 1.0));
}

} // namespace tps::bench
