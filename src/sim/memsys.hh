/**
 * @file
 * Data-cache latency model (Table I geometry): L1D + LLC + DRAM.
 *
 * Both demand accesses and page-walk references flow through it, so
 * walks naturally benefit from PTE caching in the data hierarchy (as in
 * real processors and as the paper's related work notes).  The model
 * tracks cache-line residency only (no data) in set-associative LRU tag
 * arrays, each set kept in recency order, and returns the access
 * latency in cycles.
 */

#ifndef TPS_SIM_MEMSYS_HH
#define TPS_SIM_MEMSYS_HH

#include <cstdint>
#include <vector>

#include "vm/addr.hh"

namespace tps::sim {

/** Cache/DRAM latency knobs (defaults follow Table I). */
struct MemSysConfig
{
    unsigned lineBytes = 64;
    uint64_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 8;
    unsigned l1LatencyCycles = 4;
    uint64_t llcBytes = 2 * 1024 * 1024;
    unsigned llcWays = 16;
    unsigned llcLatencyCycles = 10;
    unsigned dramLatencyCycles = 200;
};

/** Per-level hit statistics. */
struct MemSysStats
{
    uint64_t accesses = 0;      //!< cache-hierarchy accesses
    uint64_t l1Hits = 0;        //!< L1D hits
    uint64_t llcHits = 0;       //!< LLC hits
    uint64_t dramAccesses = 0;  //!< DRAM accesses
};

/** The two-level cache + DRAM latency model. */
class MemSys
{
  public:
    explicit MemSys(const MemSysConfig &cfg = MemSysConfig{});

    /** Access @p pa; returns the latency in cycles. */
    unsigned
    access(vm::Paddr pa)
    {
        ++stats_.accesses;
        uint64_t line =
            lineIsPow2_ ? pa >> lineShift_ : pa / cfg_.lineBytes;
        // Start the LLC tag fetch while the L1 probe runs: the LLC
        // array is the one structure too large to stay cache-hot, and
        // most L1 misses go on to probe it.
        __builtin_prefetch(
            &llc_.tags[static_cast<unsigned>(line & (llc_.sets - 1)) *
                       llc_.ways]);
        if (l1_.lookupFill(line)) {
            ++stats_.l1Hits;
            return cfg_.l1LatencyCycles;
        }
        if (llc_.lookupFill(line)) {
            ++stats_.llcHits;
            return cfg_.llcLatencyCycles;
        }
        ++stats_.dramAccesses;
        return cfg_.dramLatencyCycles;
    }

    const MemSysStats &stats() const { return stats_; }
    void clearStats() { stats_ = MemSysStats{}; }
    const MemSysConfig &config() const { return cfg_; }


  private:
    /**
     * One set-associative tag array.  Each set lists its tags from the
     * most to the least recently used, and ways never filled keep
     * kInvalidTag at the tail, so the last way is always the victim:
     * an empty way while the set has one, else the LRU line.
     */
    struct Level
    {
        /**
         * Tag no real line can produce (physical addresses are far
         * below 2^64): invalid ways carry it, so the hit scan is a
         * pure tag compare with no separate valid array.
         */
        static constexpr uint64_t kInvalidTag = ~0ull;

        unsigned sets = 0;
        unsigned ways = 0;
        unsigned setShift = 0;         //!< log2(sets), for the tag
        std::vector<uint64_t> tags;    //!< sets x ways, MRU first

        void init(uint64_t bytes, unsigned w, unsigned line);

        bool
        lookupFill(uint64_t line_addr)
        {
            uint64_t *set =
                &tags[static_cast<unsigned>(line_addr & (sets - 1)) * ways];
            uint64_t tag = line_addr >> setShift;
            // One pass scans for the tag and shifts each way it passes
            // down by one, with the tag at the front: a hit at way h
            // closes its own gap, a miss drops the last way.
            uint64_t carry = tag;
            for (unsigned w = 0; w < ways; ++w) {
                uint64_t cur = set[w];
                set[w] = carry;
                if (cur == tag)
                    return true;
                carry = cur;
            }
            return false;
        }
    };

    MemSysConfig cfg_;
    Level l1_;
    Level llc_;
    bool lineIsPow2_ = true;
    unsigned lineShift_ = 6;
    MemSysStats stats_;
};

} // namespace tps::sim

#endif // TPS_SIM_MEMSYS_HH
