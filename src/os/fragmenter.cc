#include "os/fragmenter.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace tps::os {

Fragmenter::Fragmenter(PhysMemory &pm, FragmenterConfig cfg)
    : pm_(pm), cfg_(cfg), rng_(cfg.seed, 0x777)
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

void
Fragmenter::run()
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
        held_.push_back({*pfn, order});
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
            if (held_.empty())
                continue;
            size_t idx = rng_.below(static_cast<uint32_t>(held_.size()));
            auto [pfn, order] = held_[idx];
            buddy.free(pfn, order);
            held_[idx] = held_.back();
            held_.pop_back();
        } else {
            unsigned order = sampleOrder();
            auto pfn = buddy.alloc(order);
            if (pfn)
                held_.push_back({*pfn, order});
        }
    }

    // Phase 3: trim to the target free fraction -- release random
    // survivors if too full, absorb free memory if too empty.
    while (free_fraction() < cfg_.targetFreeFraction && !held_.empty()) {
        size_t idx = rng_.below(static_cast<uint32_t>(held_.size()));
        auto [pfn, order] = held_[idx];
        buddy.free(pfn, order);
        held_[idx] = held_.back();
        held_.pop_back();
    }
    while (free_fraction() > cfg_.targetFreeFraction * 1.05) {
        unsigned order = sampleOrder();
        auto pfn = buddy.alloc(order);
        if (!pfn)
            break;
        held_.push_back({*pfn, order});
    }
}

void
Fragmenter::releaseAll()
{
    for (auto [pfn, order] : held_)
        pm_.buddy().free(pfn, order);
    held_.clear();
}

} // namespace tps::os
