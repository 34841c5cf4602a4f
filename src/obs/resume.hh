/**
 * @file
 * Resumable sweeps: reload a partial run manifest and look up completed
 * cells so a restarted bench can skip them.
 *
 * ResumeLog loads the manifest as a single-input mergeManifests() and
 * indexes its "ok" cells by cell identity (obs/shard.hh), so failed or
 * timed-out cells re-run, and resuming under other robustness-only
 * options (a longer --cell-timeout) still finds the cells.  Each ok
 * cell's stats are restored at load time, so a file with one unreadable
 * cell loads nothing.  A restored cell carries the prior pure cell JSON
 * verbatim, which keeps a resumed sweep's manifest byte-identical to an
 * uninterrupted one (tests/robustness_test.cc).
 */

#ifndef TPS_OBS_RESUME_HH
#define TPS_OBS_RESUME_HH

#include <map>
#include <string>

#include "core/tps_system.hh"
#include "obs/json.hh"
#include "sim/engine.hh"

namespace tps::obs {

/** One completed cell of a prior manifest. */
struct ResumedCell
{
    Json pure;            //!< the prior pure cell JSON, verbatim
    sim::SimStats stats;  //!< its "stats" tree, restored
};

/** Index of completed cells loaded from a prior --stats-json manifest. */
class ResumeLog
{
  public:
    /**
     * Load @p path.  Returns false (leaving the log empty, with the
     * one-line reason in error()) when the file is missing or
     * unreadable, mergeManifests() rejects it, or an ok cell's stats
     * do not restore (obs::cellStats()) -- a bench treats that as
     * "nothing to resume", not an error.
     */
    bool load(const std::string &path);

    /** Why the last load() found nothing to resume. */
    const std::string &error() const { return error_; }

    /**
     * The restored cell for @p opts, or nullptr when the prior run has
     * no completed ("ok") cell with this identity.
     */
    const ResumedCell *find(const core::RunOptions &opts) const;

    size_t size() const { return cells_.size(); }

  private:
    std::map<uint64_t, ResumedCell> cells_;  //!< by identityHash
    std::string error_;
};

} // namespace tps::obs

#endif // TPS_OBS_RESUME_HH
