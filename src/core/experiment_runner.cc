#include "core/experiment_runner.hh"

#include <chrono>

#include "util/sim_error.hh"

namespace tps::core {

std::vector<sim::SimStats>
ExperimentRunner::run(const std::vector<RunOptions> &cells)
{
    return map(
        cells,
        [](const RunOptions &opts) { return runExperiment(opts); },
        [](const RunOptions &opts, size_t) {
            return cellLabel(opts);
        });
}

std::vector<CellOutcome>
ExperimentRunner::runGuarded(const std::vector<RunOptions> &cells,
                             const SweepPolicy &policy)
{
    obs::SweepMonitor *monitor = monitor_;
    // Map over indices so each cell can look up its census flag.
    // mapIndex() waits for every cell, so the references outlive the
    // tasks.
    return mapIndex(
        cells.size(),
        [&cells, &policy, monitor](size_t i) {
            const RunOptions &opts = cells[i];
            const bool census_on =
                i < policy.census.size() && policy.census[i];
            CellOutcome out;
            if (policy.eventTrace)
                out.trace = std::make_unique<obs::EventTrace>();
            if (policy.profile)
                out.profile = std::make_unique<obs::ProfileRegistry>();
            Census census;
            RunHooks hooks{out.trace.get(), out.profile.get(), nullptr,
                           census_on ? &census : nullptr};
            auto start = std::chrono::steady_clock::now();
            for (unsigned attempt = 0; attempt <= policy.retries;
                 ++attempt) {
                out.attempts = attempt + 1;
                // A retry re-records from scratch; on final failure the
                // partial trace is kept for post-mortem inspection.
                if (out.trace)
                    out.trace->clear();
                try {
                    out.stats = runExperiment(opts, hooks);
                    if (census_on)
                        out.census = std::move(census);
                    out.status = CellStatus::Ok;
                    out.error.clear();
                    out.errorKind.clear();
                    break;
                } catch (const SimError &e) {
                    out.stats = sim::SimStats{};
                    out.status = e.kind() == ErrorKind::Timeout
                                     ? CellStatus::Timeout
                                     : CellStatus::Failed;
                    out.error = e.what();
                    out.errorKind = errorKindName(e.kind());
                } catch (const std::exception &e) {
                    out.stats = sim::SimStats{};
                    out.status = CellStatus::Failed;
                    out.error = e.what();
                    out.errorKind = "exception";
                }
            }
            out.seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (monitor)
                monitor->cellDone(cellLabel(opts), out.attempts,
                                  out.status != CellStatus::Ok);
            return out;
        });
}

} // namespace tps::core
