/**
 * @file
 * Run manifests: the complete, self-describing JSON artifact a bench
 * emits with --stats-json.
 *
 * One manifest records everything needed to reproduce and analyze a
 * sweep: for every cell the full RunOptions, the exact EngineConfig
 * those options assemble, the cell's deterministic seed, the complete
 * stat tree (via SimStats::toJson(), so names match the live registry)
 * and the per-epoch time series when epoch sampling was on.
 *
 * The host section (pool width, wall-clock) is optional: with
 * includeHost = false the manifest is a pure function of
 * (options, stats), which is what lets the golden test require
 * byte-identical manifests across --jobs values.
 */

#ifndef TPS_OBS_RUN_MANIFEST_HH
#define TPS_OBS_RUN_MANIFEST_HH

#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "obs/json.hh"

namespace tps::obs {

/** One completed cell: what ran and what it produced. */
struct CellArtifact
{
    core::RunOptions options;
    sim::SimStats stats;
    core::CellStatus status = core::CellStatus::Ok;
    std::string error;       //!< final failure message (status != Ok)
    std::string errorKind;   //!< SimError taxonomy name (status != Ok)
    unsigned attempts = 1;   //!< executions performed (host-only field)
    double wallSeconds = 0.0;
    /**
     * Non-null for cells restored by --resume: the verbatim pure cell
     * JSON from the prior manifest.  cellJson() re-emits it unchanged
     * (host-only keys aside), which is what keeps a resumed manifest
     * byte-identical to an uninterrupted run.
     */
    Json restored;
};

/** Manifest-level metadata. */
struct ManifestInfo
{
    std::string bench;        //!< emitting benchmark name
    unsigned jobs = 0;        //!< pool width the sweep used
    double wallSeconds = 0.0; //!< whole-bench wall time
    /**
     * Emit the host section and per-cell wall times.  Off in golden
     * tests: without them the manifest depends only on the simulated
     * results, never on the machine or schedule that produced them.
     */
    bool includeHost = true;
    /**
     * Shard provenance (ShardPlan::provenanceJson()) for a partial
     * manifest from a --shard run.  Host-only: emitted under
     * host.shard, so it never enters the byte-stable sections, and only
     * when non-null -- unsharded manifests keep their exact prior shape.
     */
    Json shard;
};

/** A cell's "options": core::forEachRunOption's emitted options. */
Json runOptionsJson(const core::RunOptions &opts);

/** Every EngineConfig knob as JSON (enums by name). */
Json engineConfigJson(const sim::EngineConfig &cfg);

/** One cell: workload info, design, seed, options, config, stats. */
Json cellJson(const CellArtifact &cell, bool includeHost = true);

/** The whole manifest. */
Json manifestJson(const ManifestInfo &info,
                  const std::vector<CellArtifact> &cells);

/** Write manifestJson() to @p path. */
void writeManifest(const std::string &path, const ManifestInfo &info,
                   const std::vector<CellArtifact> &cells);

} // namespace tps::obs

#endif // TPS_OBS_RUN_MANIFEST_HH
