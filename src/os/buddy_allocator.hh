/**
 * @file
 * Binary buddy allocator over physical frames (Sec. II-B).
 *
 * Free memory is kept in per-order free lists of naturally aligned
 * power-of-two blocks; allocation splits larger blocks, freeing merges
 * buddy pairs back up.  Beyond the classic interface the allocator
 * supports:
 *
 *  - targeted allocation of a *specific* block (compaction and page
 *    merging need to carve particular frames out of the free lists);
 *  - `/proc/buddyinfo`-style free-list snapshots;
 *  - the free-contiguity coverage analysis behind the paper's Fig. 15
 *    (what fraction of free memory could be used if only a single page
 *    size existed).
 *
 * Each order's free list is an OrderedBitmapSet indexed by pfn >> order:
 * one bit per naturally aligned block, with two summary levels, so the
 * lowest free block is three bit scans away and membership tests and
 * buddy lookups touch one word per level.  Bitmap words are allocated
 * lazily, in chunks, only where a block of that order was ever freed.
 * Ordered lists make allocation deterministic (lowest address first),
 * which the reproducibility of every figure depends on.
 *
 * Sparse representation.  A fresh allocator's free lists are a pure
 * function of capacity: a run of maximal (order kMaxOrder) blocks
 * followed by a descending power-of-two tail.  The never-touched part
 * of that run is therefore kept *implicit* -- a single [runStart_,
 * runEnd_) interval rather than a bit per gigabyte in the maximal-order
 * list -- and blocks materialize into the explicit lists only when an
 * operation actually reaches them.  Materialization moves a block between two
 * equivalent encodings of the same state, so every query and every
 * statistic is bit-identical to the dense allocator; the dense mode
 * (materialize everything up front) survives as the oracle the golden
 * sparse-vs-dense suite compares against.  Because allocation prefers
 * the lowest address and buddy merges never cross the run boundary
 * (the run start is always kMaxOrder-aligned and maximal blocks never
 * merge further), the explicit region evolves exactly as the dense
 * allocator's would.
 */

#ifndef TPS_OS_BUDDY_ALLOCATOR_HH
#define TPS_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/bitmap_set.hh"
#include "vm/addr.hh"

namespace tps::os {

using vm::Pfn;

/** Allocator operation counters (feeds the Fig. 17 system-time model). */
struct BuddyStats
{
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t splits = 0;        //!< blocks split to satisfy allocations
    uint64_t merges = 0;        //!< buddy pairs merged on free
    uint64_t failedAllocs = 0;  //!< allocations that found no block

    bool operator==(const BuddyStats &) const = default;
};

/** The buddy allocator. */
class BuddyAllocator
{
  public:
    /** Largest supported block order (2^18 frames = 1 GB). */
    static constexpr unsigned kMaxOrder = 18;

    /**
     * @param total_frames  Physical frames managed; the initial state is
     *                      one big free region [0, total_frames).
     * @param dense         Materialize every free block up front (the
     *                      oracle mode) instead of keeping the untouched
     *                      maximal-block run implicit.
     */
    explicit BuddyAllocator(uint64_t total_frames, bool dense = false);

    /**
     * Allocate a naturally aligned block of 2^@p order frames.
     * @return first frame of the block, or nullopt if no block of this
     *         or any larger order is free.
     */
    std::optional<Pfn> alloc(unsigned order);

    /**
     * Allocate the specific block [@p pfn, @p pfn + 2^@p order), which
     * must currently be entirely free.
     * @return true on success; false if any frame in it is in use.
     */
    bool allocSpecific(Pfn pfn, unsigned order);

    /**
     * Free a block previously returned by alloc()/allocSpecific().
     * Only the exact same-order double free panics here: the block is
     * still on its own order's free list.  A second free of a block
     * that merged with its buddy on the first free, or a free of a
     * block inside the implicit run, passes silently, because catching
     * it would cost a lookup per enclosing order on every free.  The
     * invariant checker (`--paranoid`) reports both as frame-accounting
     * violations.
     */
    void free(Pfn pfn, unsigned order);

    /**
     * Largest order for which a free block is currently available
     * without exceeding @p max_order.
     * @return the order, or nullopt if nothing at all is free.
     */
    std::optional<unsigned> largestAvailable(unsigned max_order) const;

    /** True iff the whole block [@p pfn, +2^@p order) is free. */
    bool isFree(Pfn pfn, unsigned order) const;

    uint64_t totalFrames() const { return totalFrames_; }
    uint64_t freeFrames() const { return freeFrames_; }
    uint64_t usedFrames() const { return totalFrames_ - freeFrames_; }

    /** Free-block count per order (the /proc/buddyinfo view). */
    std::vector<uint64_t> freeListCounts() const;

    /**
     * Fraction (0..1) of currently free memory usable if *only* pages of
     * 2^@p order frames existed (Fig. 15's per-size coverage): each free
     * block of order o >= order contributes its full size; smaller free
     * blocks contribute nothing.
     */
    double coverageAt(unsigned order) const;

    /**
     * External-fragmentation index in [0,1]: 1 - (largest free block /
     * total free).  0 means all free memory is one block.
     */
    double fragmentationIndex() const;

    const BuddyStats &stats() const { return stats_; }
    void clearStats() { stats_ = BuddyStats{}; }
    /** Overwrite the counters (restoring a recorded state). */
    void restoreStats(const BuddyStats &stats) { stats_ = stats; }

    /**
     * Move every implicit block onto the explicit lists, as the dense
     * mode does at construction.  Only implicitBlocks() tells the
     * difference: no allocation, query or counter changes.
     */
    void materializeAll();

    /**
     * Visit every free block of @p order in ascending address order
     * (tests / invariant sweeps).  Implicit run blocks are visited
     * arithmetically, without being materialized.
     */
    void forEachFreeBlock(unsigned order,
                          const std::function<void(Pfn)> &visit) const;

    /** Number of still-implicit maximal blocks (tests/introspection). */
    uint64_t implicitBlocks() const
    {
        return (runEnd_ - runStart_) >> kMaxOrder;
    }

  private:
    /** Remove a specific block from its free list; false if absent. */
    bool removeFree(Pfn pfn, unsigned order);

    /** Insert a block, merging with its buddy as far as possible. */
    void insertAndMerge(Pfn pfn, unsigned order);

    /**
     * Insert into a free list, keeping the non-empty bitmask in step.
     * The block must not already be free (a double free panics).
     */
    void insertFree(Pfn pfn, unsigned order);

    /** Move the first implicit run block onto the explicit lists. */
    void materializeOne();

    /** Materialize implicit blocks up to and including @p pfn's. */
    void materializeThrough(Pfn pfn);

    uint64_t totalFrames_;
    uint64_t freeFrames_;
    //! index = order; each set holds pfn >> order of its free blocks
    std::vector<OrderedBitmapSet> freeLists_;
    /**
     * Bitmask of orders whose *explicit* list is non-empty, so the
     * alloc() fallback and largestAvailable() find the next populated
     * order with one bit scan instead of a linear walk (hot under
     * reservation churn).
     */
    uint32_t nonEmptyOrders_ = 0;
    //! Implicit free run [runStart_, runEnd_): untouched maximal
    //! (kMaxOrder) blocks not yet present in the explicit lists.  Both
    //! bounds are kMaxOrder-aligned; empty in dense mode.
    Pfn runStart_ = 0;
    Pfn runEnd_ = 0;
    BuddyStats stats_;
};

} // namespace tps::os

#endif // TPS_OS_BUDDY_ALLOCATOR_HH
