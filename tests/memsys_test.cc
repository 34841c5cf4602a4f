/**
 * @file
 * sim::MemSys's replacement rule, checked independently of the
 * simulator: a copy of the stamp-LRU tag arrays the model used to keep
 * (one 64-bit use stamp per way, victim = first stamp-minimum way) is
 * driven with the same seeded access streams as MemSys over several
 * geometries, and every latency and counter must agree.  A pinned hash
 * of a long latency stream on the default geometry guards the rule
 * across builds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/memsys.hh"
#include "util/bitops.hh"
#include "util/rng.hh"

namespace tps::sim {
namespace {

/**
 * The reference model: L1D + LLC tag arrays with per-way LRU stamps.
 * Invalid ways keep stamp 0, below every valid stamp, so an empty way
 * is filled before any line is evicted.
 */
class StampLruMemSys
{
  public:
    explicit StampLruMemSys(const MemSysConfig &cfg) : cfg_(cfg)
    {
        l1_.init(cfg.l1Bytes, cfg.l1Ways, cfg.lineBytes);
        llc_.init(cfg.llcBytes, cfg.llcWays, cfg.lineBytes);
    }

    unsigned
    access(vm::Paddr pa)
    {
        ++stats_.accesses;
        ++tick_;
        uint64_t line = pa / cfg_.lineBytes;
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

  private:
    /** The stamp-LRU tag array, as MemSys::Level used to be. */
    struct Level
    {
        static constexpr uint64_t kInvalidTag = ~0ull;

        unsigned sets = 0;
        unsigned ways = 0;
        unsigned setShift = 0;
        std::vector<uint64_t> tags;    //!< sets x ways
        std::vector<uint64_t> lastUse; //!< LRU stamps

        void
        init(uint64_t bytes, unsigned w, unsigned line)
        {
            ways = w;
            uint64_t lines = bytes / line;
            sets = static_cast<unsigned>(lines / ways);
            setShift = log2Floor(sets);
            tags.assign(lines, kInvalidTag);
            lastUse.assign(lines, 0);
        }

        bool
        lookupFill(uint64_t line_addr, uint64_t tick)
        {
            unsigned set = static_cast<unsigned>(line_addr & (sets - 1));
            uint64_t tag = line_addr >> setShift;
            unsigned base = set * ways;
            unsigned hit = ways;
            for (unsigned w = 0; w < ways; ++w)
                hit = tags[base + w] == tag ? w : hit;
            if (hit != ways) {
                lastUse[base + hit] = tick;
                return true;
            }
            // Miss: victim is the first stamp-minimum way.
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
    uint64_t tick_ = 0;
    MemSysStats stats_;
};

/**
 * A seeded mix of three access patterns: a hot region that fits the
 * LLC but not L1D, lines that crowd one LLC set (more of them than
 * the LLC has ways, so the set overflows and evicts), and uniform random
 * addresses over 8 GB (mostly cold misses into fresh sets).
 */
class AccessStream
{
  public:
    AccessStream(const MemSysConfig &cfg, uint64_t seed)
        : rng_(seed, 0x3e3),
          line_(cfg.lineBytes),
          llcSetStride_(cfg.llcBytes / cfg.llcWays),
          conflictLines_(2 * cfg.llcWays + 3),
          hotLines_(2 * cfg.l1Bytes / cfg.lineBytes)
    {}

    vm::Paddr
    next()
    {
        unsigned pick = rng_.below(8);
        uint64_t offset = rng_.below(line_);
        if (pick < 4)
            return rng_.below64(hotLines_) * line_ + offset;
        if (pick < 6) {
            return kConflictBase +
                   rng_.below64(conflictLines_) * llcSetStride_ + offset;
        }
        return rng_.below64(kRandomBytes);
    }

  private:
    static constexpr uint64_t kRandomBytes = uint64_t{8} << 30;
    static constexpr uint64_t kConflictBase = uint64_t{1} << 34;

    Pcg32 rng_;
    uint64_t line_;
    uint64_t llcSetStride_;
    uint64_t conflictLines_;
    uint64_t hotLines_;
};

void
expectStatsEqual(const MemSysStats &a, const MemSysStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
}

MemSysConfig
geometry(unsigned line, unsigned l1_sets, unsigned l1_ways,
         unsigned llc_sets, unsigned llc_ways)
{
    MemSysConfig cfg;
    cfg.lineBytes = line;
    cfg.l1Bytes = uint64_t{l1_sets} * l1_ways * line;
    cfg.l1Ways = l1_ways;
    cfg.llcBytes = uint64_t{llc_sets} * llc_ways * line;
    cfg.llcWays = llc_ways;
    return cfg;
}

TEST(MemSys, MatchesStampLruReference)
{
    const std::vector<std::pair<const char *, MemSysConfig>> geometries = {
        {"default (Table I)", MemSysConfig{}},
        {"1-way", geometry(64, 512, 1, 32768, 1)},
        {"2-way", geometry(64, 256, 2, 16384, 2)},
        {"32-way", geometry(64, 16, 32, 1024, 32)},
        {"4 sets", geometry(64, 4, 8, 4, 16)},
        {"48-byte lines", geometry(48, 64, 8, 2048, 16)},
    };
    for (const auto &[name, cfg] : geometries) {
        SCOPED_TRACE(name);
        for (uint64_t seed : {1, 2, 3}) {
            MemSys model(cfg);
            StampLruMemSys reference(cfg);
            AccessStream stream(cfg, seed);
            for (int i = 0; i < 200000; ++i) {
                vm::Paddr pa = stream.next();
                ASSERT_EQ(model.access(pa), reference.access(pa))
                    << "seed " << seed << " access " << i << " pa " << pa;
            }
            expectStatsEqual(model.stats(), reference.stats());
        }
    }
}

TEST(MemSys, LatencyStreamPinnedAcrossBuilds)
{
    const MemSysConfig cfg;
    MemSys model(cfg);
    AccessStream stream(cfg, 42);
    std::string bytes;
    for (int i = 0; i < 1000000; ++i) {
        unsigned latency = model.access(stream.next());
        for (int b = 0; b < 4; ++b)
            bytes.push_back(static_cast<char>(latency >> (8 * b)));
    }
    // Every level serves part of the stream, so the hash pins all three.
    EXPECT_GT(model.stats().l1Hits, 0u);
    EXPECT_GT(model.stats().llcHits, 0u);
    EXPECT_GT(model.stats().dramAccesses, 0u);
    EXPECT_EQ(stableHash64(bytes), 0x3f1f6d77f2385e47ull);
}

} // namespace
} // namespace tps::sim
