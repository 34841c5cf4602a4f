/**
 * @file
 * Data-cache latency model (Table I geometry): L1D + LLC + DRAM.
 *
 * Both demand accesses and page-walk references flow through it, so
 * walks naturally benefit from PTE caching in the data hierarchy (as in
 * real processors and as the paper's related work notes).  The model
 * tracks cache-line residency only (no data), with set-associative LRU
 * arrays, and returns the access latency in cycles.
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
        ++tick_;
        uint64_t line =
            lineIsPow2_ ? pa >> lineShift_ : pa / cfg_.lineBytes;
        // Start the LLC tag fetch while the L1 probe runs: the LLC
        // arrays are the one structure too large to stay cache-hot,
        // and most L1 misses go on to probe them.
        {
            unsigned set =
                static_cast<unsigned>(line & (llc_.sets - 1));
            __builtin_prefetch(&llc_.tags[set * llc_.ways]);
            __builtin_prefetch(&llc_.lastUse[set * llc_.ways]);
        }
        if (l1_.lookupFill(line, tick_)) {
            ++stats_.l1Hits;
            return cfg_.l1LatencyCycles;
        }
        if (llc_.lookupFill(line, tick_)) {
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
    /** One set-associative tag array. */
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
        std::vector<uint64_t> tags;    //!< sets x ways
        std::vector<uint64_t> lastUse; //!< LRU stamps

        void init(uint64_t bytes, unsigned w, unsigned line);

        bool
        lookupFill(uint64_t line_addr, uint64_t tick)
        {
            unsigned set = static_cast<unsigned>(line_addr & (sets - 1));
            uint64_t tag = line_addr >> setShift;
            unsigned base = set * ways;
            // A set holds at most one copy of a tag, so the scan needs
            // no early exit -- written branch-free it vectorizes.
            unsigned hit = ways;
            for (unsigned w = 0; w < ways; ++w)
                hit = tags[base + w] == tag ? w : hit;
            if (hit != ways) {
                lastUse[base + hit] = tick;
                return true;
            }
            // Miss: victim is the first stamp-minimum way.  Invalid
            // ways keep stamp 0, below every valid stamp (ticks start
            // at 1), so an empty way wins over LRU eviction.  Which of
            // several empty ways fills first differs from the original
            // last-invalid rule, but the resident tag *set* -- the
            // only thing hits and stats depend on -- evolves
            // identically.
            unsigned lru = 0;
            uint64_t lru_use = ~0ull;
            for (unsigned w = 0; w < ways; ++w) {
                bool older = lastUse[base + w] < lru_use;
                lru = older ? w : lru;
                lru_use = older ? lastUse[base + w] : lru_use;
            }
            unsigned victim = base + lru;
            tags[victim] = tag;
            lastUse[victim] = tick;
            return false;
        }
    };

    MemSysConfig cfg_;
    Level l1_;
    Level llc_;
    bool lineIsPow2_ = true;
    unsigned lineShift_ = 6;
    uint64_t tick_ = 0;
    MemSysStats stats_;
};

} // namespace tps::sim

#endif // TPS_SIM_MEMSYS_HH
