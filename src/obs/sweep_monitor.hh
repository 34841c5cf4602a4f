/**
 * @file
 * Live progress and heartbeats for experiment grids.
 *
 * The monitor keeps one set of sweep counters -- cells planned, done,
 * failed and retried, the last finished cell, and the shard this
 * process runs -- and renders them two ways with one throughput-based
 * ETA: a live progress line on stderr after each cell, and a small
 * "tps-heartbeat" JSON file kept up to date on a background thread
 * (atomic tmp+rename writes), so `tps watch` on a shared filesystem
 * can show cross-shard health.
 *
 * Thread-safe: pool workers report finished cells concurrently.
 */

#ifndef TPS_OBS_SWEEP_MONITOR_HH
#define TPS_OBS_SWEEP_MONITOR_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/json.hh"
#include "obs/shard.hh"

namespace tps::obs {

/** The monitor. */
class SweepMonitor
{
  public:
    /** Construction knobs. */
    struct Config
    {
        std::string bench;      //!< name shown in progress lines
        bool progress = false;  //!< live per-cell progress on stderr
        /**
         * When non-empty, keep a tps-heartbeat JSON file at this path
         * updated every heartbeatIntervalSeconds (plus once at start
         * and once, with finished = true, at destruction).  Writes are
         * atomic (tmp + rename) and tolerant: an unwritable heartbeat
         * warns once and never aborts the sweep.
         */
        std::string heartbeatPath;
        double heartbeatIntervalSeconds = 5.0;
        //! The shard this process runs and the full grid's fingerprint
        //! (obs/shard.hh).  Known before the sweep starts, so the very
        //! first heartbeat already names them.
        ShardSpec shard;
        std::string gridFingerprint;
    };

    SweepMonitor();
    explicit SweepMonitor(Config cfg);
    ~SweepMonitor();

    SweepMonitor(const SweepMonitor &) = delete;
    SweepMonitor &operator=(const SweepMonitor &) = delete;

    /**
     * Announce @p cells upcoming cells (called once per submitted
     * grid), so the totals and the ETA are meaningful.
     */
    void addPlanned(size_t cells);

    /**
     * Count one finished cell: @p label becomes the last cell, a cell
     * that took @p attempts executions adds attempts - 1 retries, and
     * @p failed marks a cell that failed or timed out.  Prints the
     * progress line when Config::progress is set.
     */
    void cellDone(const std::string &label, unsigned attempts,
                  bool failed);

    /** The current heartbeat document (what the heartbeat file holds). */
    Json heartbeatJson(bool finished) const;

  private:
    /** The counters' derived view; computed under mu_. */
    struct Rates
    {
        double elapsed = 0.0;     //!< seconds since construction
        size_t total = 0;         //!< planned, or done when more
        double cellsPerSec = 0.0;
        double eta = 0.0;         //!< seconds left at cellsPerSec
    };

    Rates rates() const;
    void printProgress() const;
    void writeHeartbeat(bool finished) const;

    mutable std::mutex mu_;
    Config cfg_;
    std::chrono::steady_clock::time_point start_;
    size_t planned_ = 0;
    size_t done_ = 0;
    size_t failed_ = 0;
    size_t retried_ = 0;
    std::string lastLabel_;
    std::jthread beat_;  //!< heartbeat writer; joined in destructor
};

} // namespace tps::obs

#endif // TPS_OBS_SWEEP_MONITOR_HH
