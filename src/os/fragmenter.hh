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
 */

#ifndef TPS_OS_FRAGMENTER_HH
#define TPS_OS_FRAGMENTER_HH

#include <cstdint>
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

    bool operator==(const FragmenterConfig &) const = default;
};

/** The fragmentation driver. */
class Fragmenter
{
  public:
    Fragmenter(PhysMemory &pm, FragmenterConfig cfg = FragmenterConfig{});

    /** Age memory; afterwards the held blocks pin a fragmented state. */
    void run();

    /** Free every block still held (undo). */
    void releaseAll();

    /** Blocks currently pinned. */
    const std::vector<std::pair<Pfn, unsigned>> &held() const
    {
        return held_;
    }

  private:
    /** Sample a block order, skewed toward small ones. */
    unsigned sampleOrder();

    PhysMemory &pm_;
    FragmenterConfig cfg_;
    Pcg32 rng_;
    //! Cumulative probability of orders 0..o; sampleOrder() returns the
    //! first order whose threshold exceeds a uniform draw.
    std::vector<double> orderThresholds_;
    std::vector<std::pair<Pfn, unsigned>> held_;
};

} // namespace tps::os

#endif // TPS_OS_FRAGMENTER_HH
