#include "os/fragmenter.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/logging.hh"
#include "util/memo.hh"

namespace tps::os {

namespace {

/** What run() leaves behind on a pristine memory. */
struct AgedMemory
{
    std::vector<Fragmenter::Block> held;
    BuddyStats stats;
    Pcg32 rng;
};

/** Frame count, dense (fully materialized) free lists, config. */
using AgedKey = std::tuple<uint64_t, bool, FragmenterConfig>;

util::Memo<AgedKey, std::shared_ptr<const AgedMemory>> &
agedMemo()
{
    static util::Memo<AgedKey, std::shared_ptr<const AgedMemory>> memo;
    return memo;
}

constexpr uint64_t kStream = 0x777;

} // namespace

Fragmenter::Fragmenter(PhysMemory &pm, FragmenterConfig cfg)
    : pm_(pm), cfg_(cfg), rng_(cfg.seed, kStream)
{
    tps_assert(cfg_.targetFreeFraction > 0.0 &&
               cfg_.targetFreeFraction < 1.0);
    tps_assert(cfg_.maxBlockOrder <= BuddyAllocator::kMaxOrder);
    // Geometric-ish skew: P(order) ~ smallBias^-order.  The cumulative
    // thresholds are fixed by the config, so compute them once.
    double p = 1.0;
    double norm = 0.0;
    for (unsigned o = 0; o <= cfg_.maxBlockOrder; ++o) {
        norm += p;
        p /= cfg_.smallBias;
    }
    p = 1.0;
    double acc = 0.0;
    for (unsigned o = 0; o <= cfg_.maxBlockOrder; ++o) {
        acc += p / norm;
        orderThresholds_.push_back(acc);
        p /= cfg_.smallBias;
    }
}

unsigned
Fragmenter::sampleOrder()
{
    double u = rng_.uniform();
    for (unsigned o = 0; o < orderThresholds_.size(); ++o) {
        if (u < orderThresholds_[o])
            return o;
    }
    return 0;
}

const std::vector<Fragmenter::Block> &
Fragmenter::held() const
{
    static const std::vector<Block> none;
    return held_ ? *held_ : none;
}

bool
Fragmenter::pristine() const
{
    // Fresh from construction: every frame free (so the free lists are
    // the maximal blocks), the implicit run untouched (sparse) or
    // wholly explicit (dense), no counter moved, and no draw made.
    const BuddyAllocator &buddy = pm_.buddy();
    uint64_t implicit = buddy.implicitBlocks();
    return buddy.usedFrames() == 0 && buddy.stats() == BuddyStats{} &&
           (implicit == 0 ||
            implicit == buddy.totalFrames() >> BuddyAllocator::kMaxOrder) &&
           held().empty() && rng_ == Pcg32(cfg_.seed, kStream);
}

void
Fragmenter::run()
{
    BuddyAllocator &buddy = pm_.buddy();
    if (!pristine()) {
        std::vector<Block> held = this->held();
        age(held);
        held_ = std::make_shared<const std::vector<Block>>(std::move(held));
        return;
    }
    bool built = false;
    std::shared_ptr<const AgedMemory> aged = agedMemo().get(
        {buddy.totalFrames(), buddy.implicitBlocks() == 0, cfg_}, [&] {
            auto state = std::make_shared<AgedMemory>();
            age(state->held);
            state->held.shrink_to_fit();  // resident for the process
            state->stats = buddy.stats();
            state->rng = rng_;
            built = true;
            return std::shared_ptr<const AgedMemory>(std::move(state));
        });
    held_ = std::shared_ptr<const std::vector<Block>>(aged, &aged->held);
    if (built)
        return;
    // Replay.  Aging ends with the implicit run empty (phase 1 fills
    // memory), so materialize whatever the held blocks left of it.
    for (auto [pfn, order] : aged->held) {
        bool carved = buddy.allocSpecific(pfn, order);
        tps_assert(carved);
    }
    buddy.materializeAll();
    buddy.restoreStats(aged->stats);
    rng_ = aged->rng;
}

void
Fragmenter::age(std::vector<Block> &held)
{
    BuddyAllocator &buddy = pm_.buddy();
    uint64_t total = buddy.totalFrames();
    auto free_fraction = [&] {
        return static_cast<double>(buddy.freeFrames()) /
               static_cast<double>(total);
    };

    // Phase 1: fill memory *completely* with skewed-size allocations,
    // so the frees of phase 2/3 scatter holes across all of it rather
    // than leaving a pristine contiguous tail.
    for (;;) {
        unsigned order = sampleOrder();
        auto pfn = buddy.alloc(order);
        if (!pfn) {
            pfn = buddy.alloc(0);
            if (!pfn)
                break;
            order = 0;
        }
        held.push_back({*pfn, order});
    }

    // Phase 2: churn -- free random survivors, allocate replacements --
    // so holes of many sizes open up at scattered addresses.  The
    // free/alloc bias steers the free fraction toward the target.
    for (uint64_t op = 0; op < cfg_.churnOps; ++op) {
        double ff = free_fraction();
        bool do_free;
        if (ff < cfg_.targetFreeFraction)
            do_free = true;
        else if (ff > cfg_.targetFreeFraction * 1.15)
            do_free = false;
        else
            do_free = rng_.chance(0.5);
        if (do_free) {
            if (held.empty())
                continue;
            size_t idx = rng_.below(static_cast<uint32_t>(held.size()));
            auto [pfn, order] = held[idx];
            buddy.free(pfn, order);
            held[idx] = held.back();
            held.pop_back();
        } else {
            unsigned order = sampleOrder();
            auto pfn = buddy.alloc(order);
            if (pfn)
                held.push_back({*pfn, order});
        }
    }

    // Phase 3: trim to the target free fraction -- release random
    // survivors if too full, absorb free memory if too empty.
    while (free_fraction() < cfg_.targetFreeFraction && !held.empty()) {
        size_t idx = rng_.below(static_cast<uint32_t>(held.size()));
        auto [pfn, order] = held[idx];
        buddy.free(pfn, order);
        held[idx] = held.back();
        held.pop_back();
    }
    while (free_fraction() > cfg_.targetFreeFraction * 1.05) {
        unsigned order = sampleOrder();
        auto pfn = buddy.alloc(order);
        if (!pfn)
            break;
        held.push_back({*pfn, order});
    }
}

void
Fragmenter::releaseAll()
{
    for (auto [pfn, order] : held())
        pm_.buddy().free(pfn, order);
    held_.reset();
}

} // namespace tps::os
