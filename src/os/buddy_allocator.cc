#include "os/buddy_allocator.hh"

#include <bit>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace tps::os {

BuddyAllocator::BuddyAllocator(uint64_t total_frames, bool dense)
    : totalFrames_(total_frames), freeFrames_(total_frames)
{
    tps_assert(total_frames > 0);
    // A block of order o starts at a multiple of 2^o and ends by
    // total_frames, so its index pfn >> o is below total_frames >> o.
    freeLists_.reserve(kMaxOrder + 1);
    for (unsigned o = 0; o <= kMaxOrder; ++o)
        freeLists_.emplace_back(total_frames >> o);
    // The initial free state is a run of maximal aligned blocks covering
    // [0, runEnd_) plus a descending power-of-two tail [runEnd_, total).
    // The run stays implicit; the tail (at most one block per order
    // below kMaxOrder) is materialized eagerly.
    runEnd_ = alignDown(total_frames, 1ull << kMaxOrder);
    Pfn pfn = runEnd_;
    uint64_t remaining = total_frames - runEnd_;
    while (remaining > 0) {
        uint64_t block = largestAlignedPow2(pfn, remaining);
        unsigned order = log2Floor(block);
        tps_assert(order < kMaxOrder);
        insertFree(pfn, order);
        pfn += block;
        remaining -= block;
    }
    if (dense) {
        while (runStart_ < runEnd_)
            materializeOne();
    }
}

void
BuddyAllocator::insertFree(Pfn pfn, unsigned order)
{
    freeLists_[order].insert(pfn >> order);
    nonEmptyOrders_ |= 1u << order;
}

void
BuddyAllocator::materializeOne()
{
    tps_assert(runStart_ < runEnd_);
    insertFree(runStart_, kMaxOrder);
    runStart_ += 1ull << kMaxOrder;
}

void
BuddyAllocator::materializeThrough(Pfn pfn)
{
    // Explicit blocks must stay below runStart_, so every implicit block
    // up to and including pfn's becomes explicit.
    while (runStart_ < runEnd_ && runStart_ <= pfn)
        materializeOne();
}

std::optional<Pfn>
BuddyAllocator::alloc(unsigned order)
{
    tps_assert(order <= kMaxOrder);
    ++stats_.allocs;
    // Smallest populated order >= `order`.  The implicit run contributes
    // only maximal blocks, and any explicit maximal block sits below
    // runStart_, so an explicit candidate (when one exists) is always
    // the block the dense allocator would pick.
    unsigned o;
    uint32_t mask = nonEmptyOrders_ >> order;
    if (mask != 0) {
        o = order + static_cast<unsigned>(std::countr_zero(mask));
    } else if (runStart_ < runEnd_) {
        materializeOne();
        o = kMaxOrder;
    } else {
        ++stats_.failedAllocs;
        return std::nullopt;
    }
    Pfn pfn = freeLists_[o].first() << o;
    freeLists_[o].erase(pfn >> o);
    if (freeLists_[o].empty())
        nonEmptyOrders_ &= ~(1u << o);
    // Split down to the requested order, returning upper halves.
    while (o > order) {
        --o;
        ++stats_.splits;
        insertFree(pfn + (1ull << o), o);
    }
    freeFrames_ -= 1ull << order;
    return pfn;
}

bool
BuddyAllocator::removeFree(Pfn pfn, unsigned order)
{
    if (!freeLists_[order].erase(pfn >> order))
        return false;
    if (freeLists_[order].empty())
        nonEmptyOrders_ &= ~(1u << order);
    return true;
}

bool
BuddyAllocator::isFree(Pfn pfn, unsigned order) const
{
    // A block of order <= kMaxOrder lies within one maximal-block
    // window, and the run bounds are window-aligned, so a block either
    // sits entirely inside the implicit run or not at all.
    if (pfn >= runStart_ && pfn + (1ull << order) <= runEnd_)
        return true;
    // The block is free iff it is covered by exactly one free block of
    // order >= `order`, or tiled by free sub-blocks.  Walk up first:
    // any enclosing free block covers it.
    for (unsigned o = order; o <= kMaxOrder; ++o) {
        Pfn base = alignDown(pfn, 1ull << o);
        if (freeLists_[o].contains(base >> o))
            return o >= order || base == pfn;
    }
    if (order == 0)
        return false;
    // Not covered by one block; both halves must themselves be free.
    Pfn half = 1ull << (order - 1);
    return isFree(pfn, order - 1) && isFree(pfn + half, order - 1);
}

bool
BuddyAllocator::allocSpecific(Pfn pfn, unsigned order)
{
    tps_assert(order <= kMaxOrder);
    tps_assert(isAligned(pfn, 1ull << order));
    if (!isFree(pfn, order))
        return false;
    // If the target lies in the implicit run, make it (and every run
    // block below it, which must stay ahead of runStart_) explicit; the
    // dense carve-out below then applies unchanged.
    if (pfn >= runStart_ && pfn < runEnd_)
        materializeThrough(pfn);
    ++stats_.allocs;

    // Find the enclosing free block and split it until the target block
    // is isolated.
    for (unsigned o = order; o <= kMaxOrder; ++o) {
        Pfn base = alignDown(pfn, 1ull << o);
        if (!removeFree(base, o))
            continue;
        // Split: keep descending toward pfn, freeing the other half.
        while (o > order) {
            --o;
            ++stats_.splits;
            Pfn lower = base;
            Pfn upper = base + (1ull << o);
            if (pfn < upper) {
                insertFree(upper, o);
                base = lower;
            } else {
                insertFree(lower, o);
                base = upper;
            }
        }
        tps_assert(base == pfn);
        freeFrames_ -= 1ull << order;
        return true;
    }

    // The block is tiled by smaller free blocks: claim each half
    // recursively (this cannot fail given the isFree check above).
    Pfn half = 1ull << (order - 1);
    bool ok_lo = allocSpecific(pfn, order - 1);
    bool ok_hi = allocSpecific(pfn + half, order - 1);
    tps_assert(ok_lo && ok_hi);
    // The two recursive calls each counted an alloc; net one.
    --stats_.allocs;
    return true;
}

void
BuddyAllocator::insertAndMerge(Pfn pfn, unsigned order)
{
    // Merges cannot reach into the implicit run: maximal blocks never
    // merge further (the kMaxOrder cap below), and any smaller merge
    // stays inside one window-aligned region outside the run.
    while (order < kMaxOrder) {
        Pfn buddy = pfn ^ (1ull << order);
        if (!removeFree(buddy, order))
            break;
        ++stats_.merges;
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
    }
    insertFree(pfn, order);
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    tps_assert(order <= kMaxOrder);
    tps_assert(isAligned(pfn, 1ull << order));
    tps_assert(pfn + (1ull << order) <= totalFrames_);
    ++stats_.frees;
    freeFrames_ += 1ull << order;
    insertAndMerge(pfn, order);
}

std::optional<unsigned>
BuddyAllocator::largestAvailable(unsigned max_order) const
{
    unsigned cap = max_order < kMaxOrder ? max_order : kMaxOrder;
    // A free block of any order o can satisfy requests up to min(o, cap)
    // (larger blocks split down), so the answer is the largest free
    // order anywhere, clamped to the cap.
    unsigned best;
    if (runStart_ < runEnd_)
        best = kMaxOrder;
    else if (nonEmptyOrders_ != 0)
        best = log2Floor(nonEmptyOrders_);
    else
        return std::nullopt;
    return best < cap ? best : cap;
}

std::vector<uint64_t>
BuddyAllocator::freeListCounts() const
{
    std::vector<uint64_t> counts(kMaxOrder + 1);
    for (unsigned o = 0; o <= kMaxOrder; ++o)
        counts[o] = freeLists_[o].size();
    counts[kMaxOrder] += implicitBlocks();
    return counts;
}

double
BuddyAllocator::coverageAt(unsigned order) const
{
    if (freeFrames_ == 0)
        return 0.0;
    uint64_t usable = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o)
        usable += freeLists_[o].size() << o;
    if (order <= kMaxOrder)
        usable += runEnd_ - runStart_;
    return static_cast<double>(usable) /
           static_cast<double>(freeFrames_);
}

double
BuddyAllocator::fragmentationIndex() const
{
    if (freeFrames_ == 0)
        return 0.0;
    unsigned best;
    if (runStart_ < runEnd_)
        best = kMaxOrder;
    else if (nonEmptyOrders_ != 0)
        best = log2Floor(nonEmptyOrders_);
    else
        return 0.0;
    return 1.0 - static_cast<double>(1ull << best) /
                     static_cast<double>(freeFrames_);
}

void
BuddyAllocator::forEachFreeBlock(
    unsigned order, const std::function<void(Pfn)> &visit) const
{
    tps_assert(order <= kMaxOrder);
    // Explicit maximal blocks all sit below runStart_ (the tail never
    // holds one), so explicit-then-run preserves ascending order.
    freeLists_[order].forEach([&](uint64_t i) { visit(i << order); });
    if (order == kMaxOrder) {
        for (Pfn pfn = runStart_; pfn < runEnd_; pfn += 1ull << kMaxOrder)
            visit(pfn);
    }
}

} // namespace tps::os
