/**
 * @file
 * Parallel experiment sweeps: map a grid of RunOptions cells (or any
 * per-cell computation) onto a worker pool, preserving input order.
 *
 * Determinism contract: runExperiment() is a pure function of its
 * RunOptions -- every generator seed inside a cell derives from the
 * cell's own (workload, scale, footprint) via runSeed(), never from
 * global state -- so the statistics a parallel sweep produces are
 * bit-identical to the same sweep run serially (or with any other
 * --jobs value).  The design is not part of the seed, so the cells of
 * one workload that differ only in design replay one access stream.
 * tests/golden_stats_test.cc enforces both.
 */

#ifndef TPS_CORE_EXPERIMENT_RUNNER_HH
#define TPS_CORE_EXPERIMENT_RUNNER_HH

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "obs/sweep_monitor.hh"
#include "util/task_pool.hh"

namespace tps::core {

/** Fault-tolerance policy for guarded sweeps. */
struct SweepPolicy
{
    /**
     * Re-run a failed cell up to this many extra times with identical
     * options (and therefore an identical deterministic seed) before
     * recording it as failed.  Useful against per-cell timeouts on a
     * loaded machine; a deterministic failure will simply fail again.
     */
    unsigned retries = 0;

    /**
     * Allocate a per-cell EventTrace and record the cell's run into it
     * (CellOutcome::trace).  Per-worker by construction -- each cell's
     * trace is owned by the one task running that cell -- so the hot
     * path stays lock-free.  A retried attempt clears the trace first;
     * a failed cell keeps its partial trace for post-mortems.
     */
    bool eventTrace = false;

    /** Allocate a per-cell ProfileRegistry (CellOutcome::profile). */
    bool profile = false;

    /**
     * Capture cell i's end-of-run Census (CellOutcome::census) when
     * census[i]; cells past the end of the vector capture none.
     */
    std::vector<bool> census;
};

/** Outcome of one cell of a guarded sweep. */
struct CellOutcome
{
    sim::SimStats stats;     //!< zero-initialized unless status == Ok
    CellStatus status = CellStatus::Ok;
    std::string error;       //!< what() of the final failure
    std::string errorKind;   //!< SimError taxonomy name, or "exception"
    unsigned attempts = 1;   //!< executions performed
    double seconds = 0.0;    //!< wall time across all attempts
    //! the cell's event trace (SweepPolicy::eventTrace), else null
    std::unique_ptr<obs::EventTrace> trace;
    //! the cell's self-profile (SweepPolicy::profile), else null
    std::unique_ptr<obs::ProfileRegistry> profile;
    //! the cell's census (SweepPolicy::census) when status == Ok
    std::optional<Census> census;
};

class ExperimentRunner
{
  public:
    /** @param jobs  Worker threads; 0 = one per hardware thread. */
    explicit ExperimentRunner(unsigned jobs = 0) : pool_(jobs) {}

    unsigned jobs() const { return pool_.threads(); }

    /**
     * Attach a sweep monitor: every subsequently mapped cell counts
     * toward its planned and done totals.  The monitor must outlive
     * the runner's sweeps; nullptr detaches.
     */
    void setMonitor(obs::SweepMonitor *monitor) { monitor_ = monitor; }

    /**
     * Run every cell through runExperiment() on the pool; the result
     * vector is index-aligned with @p cells.  The first cell failure
     * (if any) is rethrown in the caller's thread.  Cells report to the
     * monitor by cellLabel().
     */
    std::vector<sim::SimStats> run(const std::vector<RunOptions> &cells);

    /**
     * Fault-isolated variant of run(): a cell that throws SimError (or
     * any std::exception) is captured as a Failed/Timeout outcome with
     * zeroed stats and the sweep continues; @p policy.retries re-runs a
     * failed cell with the same deterministic seed first.  Outcomes are
     * index-aligned with @p cells.  tps_panic/assert failures still
     * abort the process: they are programmer errors, not cell errors.
     */
    std::vector<CellOutcome>
    runGuarded(const std::vector<RunOptions> &cells,
               const SweepPolicy &policy = SweepPolicy{});

    /**
     * Order-preserving parallel map: `out[i] = fn(items[i])`, with the
     * calls distributed over the pool.  @p fn must be safe to invoke
     * concurrently from multiple threads (per-cell state only).  Each
     * call that returns reports to the monitor as one cell named
     * labelFn(item, i).  The first exception a call throws is rethrown
     * in the caller's thread.
     */
    template <typename T, typename Fn, typename LabelFn>
    auto
    map(const std::vector<T> &items, Fn fn, LabelFn labelFn)
        -> std::vector<std::invoke_result_t<Fn, const T &>>
    {
        obs::SweepMonitor *monitor = monitor_;
        return mapIndex(items.size(), [&items, fn, labelFn,
                                       monitor](size_t i) {
            auto result = fn(items[i]);
            if (monitor)
                monitor->cellDone(labelFn(items[i], i), 1, false);
            return result;
        });
    }

  private:
    /**
     * `out[i] = fn(i)` for every i < n on the pool, in index order;
     * grows the monitor's plan by n, and @p fn reports each cell.
     */
    template <typename Fn>
    auto
    mapIndex(size_t n, Fn fn) -> std::vector<std::invoke_result_t<Fn, size_t>>
    {
        using R = std::invoke_result_t<Fn, size_t>;
        if (monitor_)
            monitor_->addPlanned(n);
        std::vector<std::future<R>> futures;
        futures.reserve(n);
        for (size_t i = 0; i < n; ++i)
            futures.push_back(pool_.submit([fn, i] { return fn(i); }));
        std::vector<R> out;
        out.reserve(n);
        for (auto &f : futures)
            out.push_back(f.get());
        return out;
    }

    util::TaskPool pool_;
    obs::SweepMonitor *monitor_ = nullptr;
};

} // namespace tps::core

#endif // TPS_CORE_EXPERIMENT_RUNNER_HH
