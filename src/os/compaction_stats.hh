/**
 * @file
 * Compaction result counters, split out of compaction.hh so the
 * AddressSpace can hold a per-process accumulator (merge passes update
 * it as they run) without including the daemon itself.
 */

#ifndef TPS_OS_COMPACTION_STATS_HH
#define TPS_OS_COMPACTION_STATS_HH

#include <cstdint>

namespace tps::os {

/** Compaction results. */
struct CompactionStats
{
    uint64_t migratedBlocks = 0;  //!< physical blocks migrated
    uint64_t migratedFrames = 0;  //!< frames copied during migration
    uint64_t mergedPages = 0;     //!< reservation pairs merged upward
};

} // namespace tps::os

#endif // TPS_OS_COMPACTION_STATS_HH
