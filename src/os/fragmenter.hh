/**
 * @file
 * Fragmentation workload: ages the buddy allocator into a realistically
 * fragmented steady state, substituting for the paper's dump of a
 * heavily loaded server's /proc/buddyinfo (Figs. 15/16 input).
 *
 * The driver performs alloc/free churn with a size distribution skewed
 * toward small blocks, then frees a random subset so the surviving
 * allocations pin scattered regions.  The result exhibits the paper's
 * key property: little free contiguity at conventional huge-page sizes,
 * but substantial intermediate contiguity TPS can exploit.
 *
 * Every cell of a fragmented figure ages the same pristine memory with
 * the same config, so the aged state is a process-wide input, built
 * once: the first run() on a pristine PhysMemory records the held
 * blocks, the allocator counters and its generator state in a
 * util::Memo keyed by frame count, representation and config, and
 * later runs on such a memory replay that record (see run()).
 */

#ifndef TPS_OS_FRAGMENTER_HH
#define TPS_OS_FRAGMENTER_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "os/phys_memory.hh"
#include "util/rng.hh"

namespace tps::os {

/** Fragmenter knobs. */
struct FragmenterConfig
{
    double targetFreeFraction = 0.30;  //!< free memory after aging
    uint64_t churnOps = 120000;        //!< alloc/free churn operations
    unsigned maxBlockOrder = 10;       //!< churn block sizes up to 4 MB
    double smallBias = 1.7;            //!< order sampling skew (higher =
                                       //!< more small blocks)
    uint64_t seed = 0x5eed;

    auto operator<=>(const FragmenterConfig &) const = default;
};

/** The fragmentation driver. */
class Fragmenter
{
  public:
    /** A held block: its first frame and its order. */
    using Block = std::pair<Pfn, unsigned>;

    Fragmenter(PhysMemory &pm, FragmenterConfig cfg = FragmenterConfig{});

    /**
     * Age memory; afterwards the held blocks pin a fragmented state.
     *
     * On a pristine PhysMemory (nothing allocated, no allocator
     * operation counted, and this Fragmenter not yet run) the result is a
     * pure function of the frame count, the sparse/dense
     * representation and the config.  The first such run in a process
     * ages for real and memoizes its held list, counters and generator
     * state; every later one carves the same held blocks out with
     * BuddyAllocator::allocSpecific() and restores the counters.  A
     * buddy allocator's free lists are fixed by which frames are in
     * use, so every free list, counter and later allocation is the
     * full run's.  Any other memory takes the full path.
     */
    void run();

    /** Free every block still held (undo). */
    void releaseAll();

    /** Blocks currently pinned (shared with the memo after run()). */
    const std::vector<Block> &held() const;

  private:
    /** Sample a block order, skewed toward small ones. */
    unsigned sampleOrder();

    /** The full aging path, appending to and freeing from @p held. */
    void age(std::vector<Block> &held);

    /** Whether run() may take its result from the memo. */
    bool pristine() const;

    PhysMemory &pm_;
    FragmenterConfig cfg_;
    Pcg32 rng_;
    //! Cumulative probability of orders 0..o; sampleOrder() returns the
    //! first order whose threshold exceeds a uniform draw.
    std::vector<double> orderThresholds_;
    //! Null until run(); immutable, so memo hits share one list.
    std::shared_ptr<const std::vector<Block>> held_;
};

} // namespace tps::os

#endif // TPS_OS_FRAGMENTER_HH
