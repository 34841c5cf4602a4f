/**
 * @file
 * Epoch-sampled physical-memory telemetry.
 *
 * The translation-side observability (the stat tree, epoch series,
 * event traces) never sees *physical layout over time*, yet the
 * paper's fragmentation results (Figs. 15/16) hinge on exactly that.
 * MemTelemetry closes the gap: attached to an Engine it snapshots, at
 * every epoch boundary plus the warmup/measured seam and end of run,
 *
 *   - /proc/buddyinfo-style free-list occupancy by order,
 *   - an extfrag-style fragmentation index per page-size class
 *     (Linux's __fragmentation_index, clamped to [0, 1]),
 *   - a contiguity score (free-frame-weighted mean free-block order,
 *     normalised by BuddyAllocator::kMaxOrder),
 *   - the live page-size census (pages mapped at each NAPOT size),
 *   - reservation/VMA bookkeeping counts,
 *
 * and accumulates, via hooks called from the OS policies and the
 * compaction pass,
 *
 *   - reservation lifecycle histograms: age at promotion / at break
 *     and fill fraction at promotion.  "Age" is measured on the
 *     deterministic OS fault clock (OsWork::faults), bucketed by
 *     bit width so the histogram stays small, and
 *   - compaction yield: frames moved and reservation merges vs. the
 *     contiguity recovered.
 *
 * Everything recorded is a pure function of simulated state, so the
 * serialized telemetry is byte-stable across --jobs and identical
 * between the fast and reference translate paths (sampling points ride
 * the already-differential-proven epoch ordinals).
 */

#ifndef TPS_OBS_MEM_TELEMETRY_HH
#define TPS_OBS_MEM_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "util/stats.hh"

namespace tps::os {
class AddressSpace;
} // namespace tps::os

namespace tps::obs {

/**
 * Extfrag-style fragmentation index for allocations of @p order base
 * frames, computed from buddyinfo-style free-list counts
 * (@p freeByOrder[o] = free blocks of 2^o frames).  Follows Linux's
 * __fragmentation_index: 0 while a block of the requested order is
 * still free (the request would succeed), 0 when no memory is free at
 * all (failure is shortage, not fragmentation), otherwise
 * 1 - (1 + freeFrames/2^order) / totalFreeBlocks clamped to [0, 1] --
 * tending to 1 when plenty of memory is free but only in small pieces.
 */
double extFragIndex(const std::vector<uint64_t> &freeByOrder,
                    unsigned order);

/**
 * Contiguity score in [0, 1]: the free-frame-weighted mean order of
 * the free lists, normalised by BuddyAllocator::kMaxOrder.  1 means
 * all free memory sits in maximum-order blocks, 0 means it is fully
 * shattered into base frames (or nothing is free).
 */
double contiguityScore(const std::vector<uint64_t> &freeByOrder);

/**
 * Histogram bucket for a fault-clock age: std::bit_width(age), i.e.
 * 0, 1, 2, 2, 3, 3, 3, 3, ... -- log2 buckets keep lifecycle
 * histograms bounded regardless of run length.
 */
unsigned ageBucket(uint64_t age);

/** One snapshot of physical-memory layout at a sampling point. */
struct MemEpochSample
{
    uint64_t accesses = 0;       //!< measured-phase access ordinal
    uint64_t totalFrames = 0;
    uint64_t freeFrames = 0;
    uint64_t tableFrames = 0;    //!< frames holding page tables
    uint64_t appFrames = 0;      //!< frames mapped to the application
    uint64_t reservedFrames = 0; //!< frames held by reservations
    //! buddyinfo: freeByOrder[o] = free blocks of 2^o frames.
    std::vector<uint64_t> freeByOrder;
    //! extFragIndex() per order 0..kMaxOrder.
    std::vector<double> extFrag;
    double contiguity = 0.0;     //!< contiguityScore(freeByOrder)
    //! Page-size census: (pageBits, pages mapped at that size),
    //! ascending pageBits.
    std::vector<std::pair<unsigned, uint64_t>> census;
    uint64_t reservations = 0;   //!< live reservation count

    Json toJson() const;
    static MemEpochSample fromJson(const Json &j);
};

/** Reservation lifecycle counters and histograms. */
struct MemLifecycle
{
    uint64_t created = 0;   //!< reservations created
    uint64_t promoted = 0;  //!< promotion events (one per rung)
    uint64_t broken = 0;    //!< reservations released before/at unmap
    //! Fault-clock age at each promotion, in ageBucket() buckets.
    Histogram ageAtPromotion;
    //! Fault-clock age at each release, in ageBucket() buckets.
    Histogram ageAtBreak;
    //! Fill percent (0..100) of the promoted region at promotion.
    Histogram fillAtPromotion;

    Json toJson() const;
    static MemLifecycle fromJson(const Json &j);
};

/** Compaction yield: what moving memory bought. */
struct MemCompactionYield
{
    uint64_t passes = 0;       //!< merge/compaction passes observed
    uint64_t movedFrames = 0;  //!< frames copied during compaction
    uint64_t mergedPages = 0;  //!< reservation pairs merged
    //! Sum over passes of (contiguity after - contiguity before).
    double contiguityRecovered = 0.0;

    Json toJson() const;
    static MemCompactionYield fromJson(const Json &j);
};

/**
 * The full telemetry record for one cell.  Value type: lives inside
 * sim::SimStats so it rides the existing manifest/resume machinery.
 */
struct MemTelemetryData
{
    //! True when a MemTelemetry probe was attached; false keeps the
    //! "mem" section out of stat dumps entirely (telemetry-off runs
    //! serialize exactly as before the probe existed).
    bool enabled = false;
    std::vector<MemEpochSample> samples;
    MemLifecycle lifecycle;
    MemCompactionYield compaction;

    Json toJson() const;
    static MemTelemetryData fromJson(const Json &j);
};

/**
 * The live probe.  The Engine calls sample() at each sampling point;
 * the OS policies and compaction pass call the on*() hooks as
 * reservations are created, promoted, released and merged.  All hooks
 * are keyed on the deterministic fault clock passed in by the caller
 * (os::OsWork::faults), never on host state.
 */
class MemTelemetry
{
  public:
    MemTelemetry() { data_.enabled = true; }

    /** Snapshot @p as at measured-phase ordinal @p accesses. */
    void sample(const os::AddressSpace &as, uint64_t accesses);

    /**
     * sample(), unless the most recent sample was already taken at
     * @p accesses (the end-of-run flush after an epoch boundary).
     */
    void sampleIfNew(const os::AddressSpace &as, uint64_t accesses);

    /** A reservation was created at @p vaBase, fault clock @p now. */
    void onReservationCreated(uint64_t vaBase, uint64_t now);

    /**
     * A region of a reservation created at @p vaBase was promoted:
     * @p filledPages of its @p regionPages base pages were touched at
     * promotion time, fault clock @p now.
     */
    void onPromotion(uint64_t vaBase, uint64_t filledPages,
                     uint64_t regionPages, uint64_t now);

    /** The reservation at @p vaBase was released, fault clock @p now. */
    void onReservationReleased(uint64_t vaBase, uint64_t now);

    /**
     * A compaction/merge pass completed: @p movedFrames frames were
     * copied, @p mergedPages reservation pairs merged, and the
     * contiguity score went from @p before to @p after.
     */
    void onCompactionPass(uint64_t movedFrames, uint64_t mergedPages,
                          double before, double after);

    const MemTelemetryData &data() const { return data_; }

    /** Drop all recorded telemetry (keeps the probe attached). */
    void clear();

  private:
    MemTelemetryData data_;
    //! Reservation birth times: vaBase -> fault clock at creation.
    std::map<uint64_t, uint64_t> birth_;
};

} // namespace tps::obs

#endif // TPS_OBS_MEM_TELEMETRY_HH
