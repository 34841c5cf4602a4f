/**
 * @file
 * Cross-design comparison reports from run manifests.
 *
 * buildReport() joins one or more (possibly partial) run manifests
 * through mergeManifests() -- the same identity join `tps merge` uses
 * -- into a byte-stable report pair: a long-format CSV for plotting
 * and a Markdown document for humans.  It has per-design MPKI/speedup
 * tables, physical-memory fragmentation and census series (when cells
 * carry --mem-telemetry data), p50/p95/p99 columns from the recorded
 * histograms, and an explicit holes section.  Table rows are a cell
 * label's workload plus variants ("gups+smt"), columns its
 * design[/timing] (core::cellLabel()).  The holes are the merge's
 * missing, failed or timed-out cells plus every empty table slot.
 * The CLI wrapper is `tps report`.
 *
 * Determinism: output depends only on the manifest contents and the
 * source names passed in -- rows are sorted (workloads and designs
 * lexicographically, baseline design first), doubles render via the
 * same shortest-round-trip serializer as Json, and no host state is
 * consulted -- so a fixed manifest set always produces byte-identical
 * reports, and the output is safe to diff in CI.
 */

#ifndef TPS_OBS_REPORT_HH
#define TPS_OBS_REPORT_HH

#include <string>
#include <vector>

#include "obs/json.hh"

namespace tps::obs {

/** Report knobs. */
struct ReportOptions
{
    /**
     * Design whose cycles anchor the speedup column.  Falls back to
     * the first design (in display order) present in the manifests.
     */
    std::string baselineDesign = "thp";
};

/** What buildReport() produces. */
struct Report
{
    std::string csv;       //!< long format: section,workload,design,...
    std::string markdown;
    size_t cells = 0;      //!< ok cells in the merged manifest
    size_t holes = 0;      //!< merge holes plus empty table slots
};

/**
 * Join @p manifests (parsed "tps-run-manifest" files; @p sources are
 * their display names, typically file paths) into one report.  Cells
 * join by identity; when several manifests carry the same cell, the
 * first ok occurrence wins, and a later ok copy that differs is listed
 * under "Conflicts".
 * @throws SimError{InvalidArgument} on inputs mergeManifests() rejects.
 */
Report buildReport(const std::vector<Json> &manifests,
                   const std::vector<std::string> &sources,
                   const ReportOptions &opts = {});

} // namespace tps::obs

#endif // TPS_OBS_REPORT_HH
