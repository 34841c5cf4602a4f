/**
 * @file
 * Offline miss-attribution analysis over event traces.
 *
 * Consumes one cell's event stream (obs/event_trace.hh) and reduces it
 * to the reports `tps analyze` prints: where the TLB misses were
 * (hot 4 KB regions), what page sizes and VMAs they charged, what the
 * page walks cost, and how bursty the miss stream was.
 *
 * Measured-phase convention: the engine emits a Mark{kMarkWarmupEnd}
 * event immediately after clearing the hardware statistics at the
 * warmup boundary, so the events *after the last Mark* (by stream
 * position) are the measured phase.  CellAnalysis therefore reconciles
 * exactly with the run manifest's measured counters: its tlbMisses
 * equals the cell's "stats.mmu.l1.misses" -- the invariant
 * tests/analyze_test.cc and the fig10 acceptance check enforce.
 *
 * Manifest join: a trace cell carries (label, seed); a manifest cell
 * carries the same seed plus the "options" object core::cellLabel() is
 * computed from, so the two match without heuristics.
 */

#ifndef TPS_OBS_TRACE_ANALYZE_HH
#define TPS_OBS_TRACE_ANALYZE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "util/stats.hh"

namespace tps::obs {

/** Miss/walk tallies charged to one page size. */
struct PageSizeBreakdown
{
    uint64_t pageBits = 0;   //!< log2(page bytes); 0 = unknown/fault
    uint64_t misses = 0;     //!< L1 TLB misses at this size
    uint64_t walks = 0;      //!< full walks at this size
    uint64_t walkMemRefs = 0; //!< memory references those walks made
};

/** Miss tallies charged to one VMA. */
struct VmaBreakdown
{
    uint64_t vmaId = 0;
    uint64_t base = 0;       //!< VMA start vaddr (from its OsMap event)
    uint64_t bytes = 0;      //!< VMA length (0 when unmapped pre-trace)
    uint64_t misses = 0;
    uint64_t walks = 0;
};

/** One hot 4 KB region (miss-count ranked). */
struct HotRegion
{
    uint64_t base = 0;       //!< region start (4 KB aligned vaddr)
    uint64_t misses = 0;
    uint64_t walks = 0;
};

/** Everything analyzeCell() reduces one cell's stream to. */
struct CellAnalysis
{
    std::string label;
    uint64_t seed = 0;

    // Measured-phase totals (events after the last Mark).
    uint64_t tlbMisses = 0;   //!< == manifest "stats.mmu.l1.misses"
    uint64_t l2Hits = 0;      //!< misses with level 0 (L2/range hit)
    uint64_t walks = 0;       //!< misses with level 1 (full walk)
    uint64_t walkEvents = 0;  //!< Walk events (== walker.walks)
    uint64_t walkMemRefs = 0;
    uint64_t walkFaults = 0;
    uint64_t accesses = 0;    //!< last event time (simulated accesses)

    // Whole-run OS activity (setup included; OS events are rare).
    uint64_t osMaps = 0;
    uint64_t osUnmaps = 0;
    uint64_t osFaults = 0;
    uint64_t osReserves = 0;
    uint64_t osPromotes = 0;
    uint64_t osCompactMoves = 0;
    uint64_t tlbShootdowns = 0;
    uint64_t tlbFlushes = 0;

    //! misses/walks/walk-refs per page size, ascending pageBits.
    std::vector<PageSizeBreakdown> perPageSize;

    //! misses per VMA, ascending vmaId (id 0 = unattributed).
    std::vector<VmaBreakdown> perVma;

    //! every 4 KB region with at least one measured miss, ranked by
    //! miss count descending (ties: lower vaddr first).
    std::vector<HotRegion> hotRegions;

    //! full-walk latency in cycles (TlbMiss level 1 latency operand).
    Histogram walkLatency;

    //! accesses between consecutive measured misses (first miss
    //! measures from the warmup boundary).
    Histogram missInterarrival;

    //! MMU-cache hit depth per walk (0 = walked from the root).
    Histogram walkHitDepth;
};

/**
 * Reduce one cell's stream.  Only events after the last Mark count
 * toward the measured-phase totals; a stream with no Mark (a trace of
 * a run that never reached the measured phase) is analyzed whole.
 */
CellAnalysis analyzeCell(const TraceCell &cell);

/**
 * The manifest cell whose core::cellLabel() and seed are (@p label,
 * @p seed), or nullptr.
 * @p manifest is a parsed tps-run-manifest document.
 */
const Json *findManifestCell(const Json &manifest,
                             const std::string &label, uint64_t seed);

/**
 * Residual-miss row: one page size's share of the misses that remain
 * in the measured phase (the paper's "which misses are left" view).
 */
struct ResidualRow
{
    uint64_t pageBits = 0;
    uint64_t misses = 0;
    double shareOfMisses = 0.0;   //!< fraction of all measured misses
    double walkRefShare = 0.0;    //!< fraction of all walk mem refs
};

/**
 * The residual-miss table for one analyzed cell: per-page-size rows,
 * descending by miss count.  When @p manifestCell is non-null its
 * restored SimStats::mmu.l1Misses is cross-checked against the trace
 * (throws SimError{CorruptState} on mismatch -- a trace that doesn't
 * reconcile with its manifest is a bug, not a report -- and
 * SimError{InvalidArgument} when the cell's stats do not restore).
 */
std::vector<ResidualRow> residualMisses(const CellAnalysis &a,
                                        const Json *manifestCell);

/** The full analysis as a JSON document (`tps analyze --json`). */
Json analysisToJson(const CellAnalysis &a, size_t topRegions);

} // namespace tps::obs

#endif // TPS_OBS_TRACE_ANALYZE_HH
