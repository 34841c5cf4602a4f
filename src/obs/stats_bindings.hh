/**
 * @file
 * The visits of the stat table: SimStats::toJson() writes the tree
 * from sim::forEachSimStat() and sim::forEachEpochStat() (defined in
 * stats_bindings.cc), and simStatsFromJson() reads it back through the
 * same rows.  A counter's manifest path is spelled only in those two
 * tables (sim/engine.hh); report, analyze and resume read a cell's
 * stats through simStatsFromJson().
 */

#ifndef TPS_OBS_STATS_BINDINGS_HH
#define TPS_OBS_STATS_BINDINGS_HH

#include "obs/json.hh"
#include "sim/engine.hh"

namespace tps::obs {

/**
 * The per-epoch time series of @p s as JSON: interval plus one record
 * per epoch with the delta counters and per-epoch MPKI.  Null when
 * epoch sampling was off.
 */
Json epochsJson(const sim::SimStats &s);

/**
 * Rebuild a SimStats from the tree SimStats::toJson() produced (the
 * "stats" section of a run-manifest cell): every stored row of the
 * stat table, the epoch series and the memory telemetry.  Derived
 * values are recomputed by SimStats itself.  Used by --resume to
 * restore completed cells without re-running them, and by the offline
 * report and analyze tools.
 * @throws SimError{InvalidArgument} when a Required counter is missing
 * or a counter is not an unsigned integer.
 */
sim::SimStats simStatsFromJson(const Json &j);

/**
 * simStatsFromJson() of a run-manifest cell's "stats" tree.
 * @throws SimError{InvalidArgument} when the cell has none, or as
 * simStatsFromJson() does.
 */
sim::SimStats cellStats(const Json &cell);

} // namespace tps::obs

#endif // TPS_OBS_STATS_BINDINGS_HH
