/**
 * @file
 * Deterministic sweep sharding and partial-manifest merging.
 *
 * A cluster-scale sweep runs as N independent shard processes, each
 * executing `--shard=i/N` of the same bench command line.  The
 * partition is a pure function of *cell identity* -- the canonical
 * (options, seed) key that merging and resuming join on -- so the union
 * over all shards is provably the full grid with no duplicates,
 * regardless of job counts, scheduling, or which machine runs which
 * shard.  Each shard writes a normal run manifest whose host section
 * carries shard provenance (index/count, a fingerprint of the full
 * canonical cell-identity list, tool version); provenance is host-only
 * and never enters cell identity or the byte-stable manifest sections.
 *
 * mergeManifests() joins the partial manifests back into the one
 * canonical manifest: it verifies bench/shard-count/grid-fingerprint
 * consistency, rejects overlapping or foreign partials, resolves
 * retried cells first-ok-wins (two differing "ok" copies of one cell
 * are a determinism violation and a hard error), and reports holes --
 * missing, failed or timed-out cells -- with shard attribution.  The
 * golden guarantee (tests/merge_test.cc): merging all shards is
 * byte-identical to the pure manifest of the unsharded run.
 *
 * buildHealthView() is the live side: it aggregates the per-shard
 * heartbeat files a SweepMonitor emits into one cross-shard progress
 * and health view, flagging stalled or dead shards.  The CLI wrapper
 * for both is tools/tps.cc: `tps merge` and `tps watch`.
 */

#ifndef TPS_OBS_SHARD_HH
#define TPS_OBS_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/tps_system.hh"
#include "obs/json.hh"

namespace tps::obs {

/** Version string stamped into shard provenance and heartbeats. */
const char *toolVersion();

// ---------------------------------------------------------------------
// Cell identity (shared with obs/resume.cc).
// ---------------------------------------------------------------------

/**
 * The canonical identity string for one cell, from its manifest
 * "options" JSON and deterministic seed: the options the run-option
 * table (core::forEachRunOption) marks Canonical are reset to their
 * defaults, then the options dump and the seed are concatenated.
 * Sharding, merging and resuming all key cells by its identityHash(),
 * so they agree on what "the same cell" means.
 */
std::string cellIdentityFromJson(const Json &options, uint64_t seed);

/** cellIdentityFromJson() over live RunOptions. */
std::string cellIdentity(const core::RunOptions &opts);

/** Stable 64-bit hash of an identity string (partition + join key). */
uint64_t identityHash(const std::string &identity);

/** True for per-cell keys that describe the host run, not the result. */
bool isHostOnlyCellKey(const std::string &key);

/** A manifest cell with the host-only keys stripped: the pure form. */
Json pureCellJson(const Json &cell);

// ---------------------------------------------------------------------
// Shard specification and planning.
// ---------------------------------------------------------------------

/** Which slice of the grid this process executes. */
struct ShardSpec
{
    unsigned index = 0;  //!< this shard, in [0, count)
    unsigned count = 1;  //!< total shards; 1 = unsharded

    /** True when the sweep is actually partitioned. */
    bool active() const { return count > 1; }
};

/** Largest accepted shard count (mirrors the --jobs cap). */
constexpr unsigned kMaxShards = 4096;

/**
 * Strict "i/N" parse: both fields decimal with no trailing garbage,
 * N in [1, kMaxShards], i < N.  Returns false on any violation.
 */
bool parseShardSpec(const std::string &text, ShardSpec *out);

/** One planned cell of distributable work. */
struct PlannedUnit
{
    std::string label;  //!< cellLabel()
    uint64_t seed = 0;  //!< runSeed()
    uint64_t id = 0;    //!< identityHash of the cell's identity string
    unsigned shard = 0; //!< owning shard: id % count
};

/**
 * The full grid a sharded bench plans, in planning order, plus this
 * process's slice of it.  Benches register every cell they *would* run
 * (before filtering), so every shard of the same command line builds
 * the identical plan, the grid fingerprint matches across shards, and
 * merge can name exactly which cells a missing shard owes.
 *
 * Not thread-safe: plan from the sweep's calling thread only (cells
 * are planned before they are handed to the worker pool).
 */
class ShardPlan
{
  public:
    explicit ShardPlan(ShardSpec spec = {}) : spec_(spec) {}

    const ShardSpec &spec() const { return spec_; }

    /** Register one cell; returns true when this shard owns it. */
    bool planCell(const core::RunOptions &opts);

    const std::vector<PlannedUnit> &grid() const { return grid_; }
    size_t plannedUnits() const { return grid_.size(); }
    size_t ownedUnits() const { return owned_; }

    /**
     * Hash over every planned unit id, in planning order, as a
     * 16-hex-digit string.  Equal across shards of one command line;
     * different for any other grid.
     */
    std::string gridFingerprint() const;

    /**
     * The host-only provenance object a partial manifest embeds under
     * host.shard: index, count, gridFingerprint, toolVersion and the
     * full planned grid (label/seed/id/owner per unit).
     */
    Json provenanceJson() const;

  private:
    ShardSpec spec_;
    std::vector<PlannedUnit> grid_;
    size_t owned_ = 0;
};

// ---------------------------------------------------------------------
// Merging partial manifests.
// ---------------------------------------------------------------------

/** One cell the merged sweep is still missing. */
struct MergeHole
{
    std::string label;
    uint64_t seed = 0;
    std::string status;  //!< "missing", "failed" or "timeout"
    int shard = -1;      //!< owning shard index; -1 when unknown
    std::string source;  //!< input that carried the failed cell, or ""
};

/** What mergeManifests() produces. */
struct MergeResult
{
    /**
     * The canonical merged manifest: format/version/bench/cells with
     * every host-only key stripped -- byte-identical to the pure
     * (includeHost = false) manifest of the equivalent unsharded run.
     */
    Json manifest;
    std::string bench;
    unsigned shardCount = 1;
    std::string gridFingerprint;       //!< empty for unsharded inputs
    std::vector<unsigned> shardsPresent;
    std::vector<unsigned> shardsMissing;
    size_t cells = 0;       //!< cells emitted into the merged manifest
    size_t okCells = 0;     //!< of those, cells with status "ok"
    size_t duplicates = 0;  //!< retried copies resolved first-ok-wins
    //! Each merged cell's identityHash() and whether it is "ok",
    //! index-aligned with manifest["cells"].
    struct CellKey { uint64_t id; bool ok; };
    std::vector<CellKey> cellKeys;
    std::vector<MergeHole> holes;
    //! Labels of ok copies dropped for differing from the kept one
    //! (only with keepFirstOk; otherwise such inputs are rejected).
    std::vector<std::string> conflicts;
};

/**
 * Join @p manifests (parsed tps-run-manifest documents; @p sources are
 * their display names) into the canonical merged manifest.
 *
 * Inputs either all carry shard provenance (a sharded sweep: bench,
 * shard count, grid fingerprint and planned grid must agree; a cell
 * recorded by a shard that does not own it is an overlap error; a cell
 * outside the planned grid is foreign) or none do (a plain join:
 * single input passes through purified; several inputs dedup by cell
 * identity, first occurrence wins).  Two "ok" copies of one cell with
 * different pure bytes are rejected as a determinism violation --
 * unless @p keepFirstOk, which keeps the first ok copy and lists the
 * others in MergeResult::conflicts (a report over a rerun made by a
 * different build).  Cells are labelled with core::cellLabel().
 *
 * @throws SimError{InvalidArgument} with a one-line actionable message
 *         on any inconsistency.
 */
MergeResult mergeManifests(const std::vector<Json> &manifests,
                           const std::vector<std::string> &sources,
                           bool keepFirstOk = false);

// ---------------------------------------------------------------------
// Cross-shard run health from heartbeat files.
// ---------------------------------------------------------------------

/** One shard's latest heartbeat, as judged at @p now. */
struct ShardHealth
{
    unsigned index = 0;
    unsigned count = 1;
    std::string bench;
    std::string gridFingerprint;
    std::string source;      //!< heartbeat file the row came from
    uint64_t planned = 0;
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t retried = 0;
    double elapsedSeconds = 0.0;
    double cellsPerSec = 0.0;
    double etaSeconds = 0.0;
    uint64_t rssPeakBytes = 0;
    std::string lastCell;
    double ageSeconds = 0.0; //!< now - last heartbeat update
    bool finished = false;
    /** "running", "done", "stalled" (3x interval) or "dead" (10x). */
    std::string state;
};

/** The aggregated cross-shard view. */
struct HealthView
{
    std::vector<ShardHealth> shards;   //!< sorted by shard index
    unsigned shardCount = 1;           //!< max count seen
    std::vector<unsigned> missingShards; //!< no heartbeat yet
    bool fingerprintMismatch = false;  //!< shards disagree on the grid
    bool anyStalled = false;
    bool allFinished = false;
    uint64_t planned = 0;
    uint64_t done = 0;
    uint64_t failed = 0;

    /** Human-readable multi-line table. */
    std::string render() const;

    Json toJson() const;
};

/**
 * Aggregate parsed tps-heartbeat documents (non-heartbeat documents
 * are ignored) into one view.  @p nowUnixMs anchors staleness: a shard
 * whose last update is older than 3x its own heartbeat interval is
 * stalled, older than 10x is presumed dead.  When several heartbeats
 * claim the same shard index, the freshest wins.
 */
HealthView buildHealthView(const std::vector<Json> &beats,
                           const std::vector<std::string> &sources,
                           uint64_t nowUnixMs);

} // namespace tps::obs

#endif // TPS_OBS_SHARD_HH
