/**
 * @file
 * Event-level simulation tracing.
 *
 * An EventTrace is a low-overhead in-memory stream of typed simulation
 * events -- TLB misses, page walks, and OS paging actions -- recorded
 * by one cell's engine and written to a compact varint-encoded binary
 * file for offline attribution analysis (`tps analyze`).
 *
 * Hot-path contract: every emission site is guarded by a plain
 * `if (trace_)` pointer test, so a run with tracing disabled (the
 * default) pays one predictable branch per site and allocates nothing.
 * Each cell owns its *own* EventTrace (one per worker-executed cell in
 * a sweep), so recording never takes a lock; the per-cell streams are
 * merged deterministically -- sorted by (cell label, seed) -- when the
 * container file is written, which makes trace files byte-identical
 * for any --jobs count.
 *
 * Clock convention: the event trace records the *simulated access
 * ordinal* -- the 1-based index of the engine access being translated,
 * counted from Engine::run() entry and never reset (in particular not
 * at the warmup boundary; a Mark event flags that instead), never host
 * time.  Events emitted during workload setup, before the first
 * access, carry time 0.  A trace joins the run manifest not by clock
 * but by cell identity: a trace cell's (label, seed) pair matches the
 * manifest's cell label + seed (see trace_analyze.hh for the join).
 */

#ifndef TPS_OBS_EVENT_TRACE_HH
#define TPS_OBS_EVENT_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tps::obs {

/**
 * Event kinds.  Numeric values are the on-disk type tags; never reuse
 * or renumber them (append new kinds instead).
 */
enum class EventType : uint8_t
{
    TlbMiss = 1,      //!< an L1 DTLB miss (one per mmu.l1.misses tick)
    Walk = 2,         //!< one hardware page walk (one per walker walk)
    OsMap = 3,        //!< mmap created a VMA
    OsUnmap = 4,      //!< munmap destroyed a VMA
    OsFault = 5,      //!< the OS fault handler ran
    OsReserve = 6,    //!< policy created a contiguity reservation
    OsPromote = 7,    //!< policy promoted a page to a larger size
    OsCompactMove = 8, //!< compaction relocated a physical block
    TlbShootdown = 9, //!< single-page TLB invalidation (INVLPG)
    TlbFlush = 10,    //!< full TLB flush
    Mark = 11,        //!< stream marker (kind 0 = end of warmup)
};

/** Largest valid EventType value (decode bound). */
constexpr uint8_t kMaxEventType = 11;

/** Mark kinds (Event field a). */
constexpr uint64_t kMarkWarmupEnd = 0;

/**
 * One recorded event.  `va` and `a`..`d` are per-type operands:
 *
 *   type           va            a         b         c       d
 *   -------------  ------------  --------  --------  ------  ---------
 *   TlbMiss        vaddr         level*    pageBits  vmaId   latency
 *   Walk           vaddr         memRefs   hitDepth  fault   pageBits
 *   OsMap          vaddr         bytes     vmaId     -       -
 *   OsUnmap        vaddr         vmaId     -         -       -
 *   OsFault        vaddr         write     -         -       -
 *   OsReserve      vaddr         pageBits  -         -       -
 *   OsPromote      vaddr         pageBits  -         -       -
 *   OsCompactMove  fromPfn       toPfn     pages     -       -
 *   TlbShootdown   vaddr         -         -         -       -
 *   TlbFlush       -             -         -         -       -
 *   Mark           kind          -         -         -       -
 *
 *   *level: 0 = the miss hit the L2 (STLB/range) level; 1 = full miss
 *    (a hardware page walk).  latency = translation cycles charged.
 *   hitDepth: MMU-cache hit level (0 = walked from the root; higher
 *    means more top levels were skipped).  fault: 1 when the walk
 *    found no translation.
 */
struct Event
{
    EventType type = EventType::Mark;
    uint64_t time = 0;  //!< simulated access ordinal (see file header)
    uint64_t va = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    uint64_t c = 0;
    uint64_t d = 0;

    bool
    operator==(const Event &o) const
    {
        return type == o.type && time == o.time && va == o.va &&
               a == o.a && b == o.b && c == o.c && d == o.d;
    }
};

/** Number of operand fields (va, a..d) encoded for @p t, 0..5. */
unsigned eventFieldCount(EventType t);

/** Printable name ("tlb-miss", "walk", ...). */
const char *eventTypeName(EventType t);

/** Append unsigned LEB128 varint @p v to @p out. */
void appendVarint(std::string &out, uint64_t v);

/**
 * Decode one varint at @p pos (advanced past it on success).
 * @return false on truncation or a >10-byte/overflowing encoding.
 */
bool readVarint(std::string_view buf, size_t &pos, uint64_t &v);

/**
 * One cell's event recorder.  Not thread-safe by design: a cell runs on
 * exactly one sweep worker.
 */
class EventTrace
{
  public:
    /**
     * Advance the stream clock (monotonic; earlier values are
     * clamped).  The engine calls this once per simulated access.
     */
    void setTime(uint64_t t) { if (t > time_) time_ = t; }

    uint64_t time() const { return time_; }

    /** Drop all recorded events and reset the clock (cell retry). */
    void
    clear()
    {
        events_.clear();
        time_ = 0;
    }

    const std::vector<Event> &events() const { return events_; }
    size_t size() const { return events_.size(); }

    /** Move the recorded events out (leaves the trace empty). */
    std::vector<Event> takeEvents() { return std::move(events_); }

    // Emitters.  Callers guard with `if (trace_)`; these only append.
    void
    tlbMiss(uint64_t va, uint64_t level, uint64_t page_bits,
            uint64_t vma_id, uint64_t latency)
    {
        events_.push_back({EventType::TlbMiss, time_, va, level,
                           page_bits, vma_id, latency});
    }

    void
    walk(uint64_t va, uint64_t mem_refs, uint64_t hit_depth,
         bool fault, uint64_t page_bits)
    {
        events_.push_back({EventType::Walk, time_, va, mem_refs,
                           hit_depth, fault ? 1u : 0u, page_bits});
    }

    void
    osMap(uint64_t va, uint64_t bytes, uint64_t vma_id)
    {
        events_.push_back({EventType::OsMap, time_, va, bytes, vma_id});
    }

    void
    osUnmap(uint64_t va, uint64_t vma_id)
    {
        events_.push_back({EventType::OsUnmap, time_, va, vma_id});
    }

    void
    osFault(uint64_t va, bool write)
    {
        events_.push_back(
            {EventType::OsFault, time_, va, write ? 1u : 0u});
    }

    void
    osReserve(uint64_t va, uint64_t page_bits)
    {
        events_.push_back({EventType::OsReserve, time_, va, page_bits});
    }

    void
    osPromote(uint64_t va, uint64_t page_bits)
    {
        events_.push_back({EventType::OsPromote, time_, va, page_bits});
    }

    void
    osCompactMove(uint64_t from_pfn, uint64_t to_pfn, uint64_t pages)
    {
        events_.push_back(
            {EventType::OsCompactMove, time_, from_pfn, to_pfn, pages});
    }

    void
    tlbShootdown(uint64_t va)
    {
        events_.push_back({EventType::TlbShootdown, time_, va});
    }

    void tlbFlush() { events_.push_back({EventType::TlbFlush, time_}); }

    void mark(uint64_t kind)
    {
        events_.push_back({EventType::Mark, time_, kind});
    }

    /** Append @p e verbatim (tests, hand-written traces). */
    void push(const Event &e) { events_.push_back(e); }

  private:
    uint64_t time_ = 0;
    std::vector<Event> events_;
};

/** One cell's stream inside a container file. */
struct TraceCell
{
    std::string label;  //!< core::cellLabel() of the cell's RunOptions
    uint64_t seed = 0;  //!< core::runSeed() -- joins with the manifest
    std::vector<Event> events;
};

/** A decoded container file. */
struct TraceFile
{
    std::vector<TraceCell> cells;

    /** The cell matching (@p label, @p seed), or nullptr. */
    const TraceCell *find(std::string_view label, uint64_t seed) const;
};

/**
 * Encode one cell's events as the varint stream stored in the
 * container: per event, the type tag, the time *delta* from the
 * previous event, then eventFieldCount() operands.
 */
std::string encodeEvents(const std::vector<Event> &events);

/**
 * Decode a cell blob produced by encodeEvents().
 * @return false on any malformed input (@p out is then unspecified).
 */
bool decodeEvents(std::string_view blob, std::vector<Event> &out);

/**
 * Serialize a container file: the "TPSEVT" magic, a format version,
 * then every cell (label, seed, event count, blob).  Cells are sorted
 * by (label, seed) first, so output is byte-identical no matter what
 * order a parallel sweep finished them in.
 */
std::string encodeTraceFile(std::vector<TraceCell> cells);

/** Parse a container file; throws SimError{InvalidArgument} on damage. */
TraceFile decodeTraceFile(std::string_view data);

/** encodeTraceFile() to @p path (tps_fatal on I/O failure). */
void writeTraceFile(const std::string &path,
                    std::vector<TraceCell> cells);

/** Read + decodeTraceFile() (tps_fatal on I/O failure). */
TraceFile readTraceFile(const std::string &path);

} // namespace tps::obs

#endif // TPS_OBS_EVENT_TRACE_HH
