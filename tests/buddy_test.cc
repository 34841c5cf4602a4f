/**
 * @file
 * Buddy-allocator tests: split/merge correctness, targeted allocation,
 * determinism, coverage analysis (Fig. 15 input), fragmentation index,
 * the double-free guard, and an alloc/free stress invariant check.
 */

#include <gtest/gtest.h>

#include "os/buddy_allocator.hh"
#include "util/rng.hh"

namespace tps::os {
namespace {

TEST(Buddy, InitialStateAllFree)
{
    BuddyAllocator buddy(1 << 18);   // 1 GB of 4 KB frames
    EXPECT_EQ(buddy.totalFrames(), 1u << 18);
    EXPECT_EQ(buddy.freeFrames(), 1u << 18);
    auto counts = buddy.freeListCounts();
    EXPECT_EQ(counts[BuddyAllocator::kMaxOrder], 1u);
    for (unsigned o = 0; o < BuddyAllocator::kMaxOrder; ++o)
        EXPECT_EQ(counts[o], 0u) << o;
}

TEST(Buddy, NonPowerOfTwoTotalSeeded)
{
    BuddyAllocator buddy(1000);
    EXPECT_EQ(buddy.freeFrames(), 1000u);
    // 1000 = 512 + 256 + 128 + 64 + 32 + 8
    auto counts = buddy.freeListCounts();
    EXPECT_EQ(counts[9], 1u);
    EXPECT_EQ(counts[8], 1u);
    EXPECT_EQ(counts[3], 1u);
}

TEST(Buddy, AllocSplitsLargerBlock)
{
    BuddyAllocator buddy(1 << 10);
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 0u);
    EXPECT_EQ(buddy.freeFrames(), (1u << 10) - 1);
    EXPECT_GT(buddy.stats().splits, 0u);
    // Free lists now hold one block at each order below the top.
    auto counts = buddy.freeListCounts();
    for (unsigned o = 0; o < 10; ++o)
        EXPECT_EQ(counts[o], 1u) << o;
}

TEST(Buddy, FreeMergesBackToOneBlock)
{
    BuddyAllocator buddy(1 << 10);
    auto pfn = buddy.alloc(0);
    buddy.free(*pfn, 0);
    EXPECT_EQ(buddy.freeFrames(), 1u << 10);
    auto counts = buddy.freeListCounts();
    EXPECT_EQ(counts[10], 1u);
    EXPECT_GT(buddy.stats().merges, 0u);
}

TEST(Buddy, AllocationIsDeterministicLowestFirst)
{
    BuddyAllocator a(1 << 12), b(1 << 12);
    for (int i = 0; i < 32; ++i) {
        auto pa = a.alloc(i % 4);
        auto pb = b.alloc(i % 4);
        ASSERT_TRUE(pa && pb);
        EXPECT_EQ(*pa, *pb);
    }
}

TEST(Buddy, BlocksAreAligned)
{
    BuddyAllocator buddy(1 << 14);
    for (unsigned order : {0u, 3u, 5u, 9u}) {
        auto pfn = buddy.alloc(order);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_TRUE(isAligned(*pfn, 1ull << order)) << order;
    }
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator buddy(16);
    EXPECT_TRUE(buddy.alloc(4).has_value());
    EXPECT_FALSE(buddy.alloc(0).has_value());
    EXPECT_EQ(buddy.stats().failedAllocs, 1u);
}

TEST(Buddy, DistinctBlocksNeverOverlap)
{
    BuddyAllocator buddy(1 << 12);
    std::vector<std::pair<Pfn, unsigned>> blocks;
    Pcg32 rng(9);
    for (int i = 0; i < 200; ++i) {
        unsigned order = rng.below(5);
        auto pfn = buddy.alloc(order);
        if (!pfn)
            break;
        blocks.push_back({*pfn, order});
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
        for (size_t j = i + 1; j < blocks.size(); ++j) {
            uint64_t ai = blocks[i].first;
            uint64_t ae = ai + (1ull << blocks[i].second);
            uint64_t bi = blocks[j].first;
            uint64_t be = bi + (1ull << blocks[j].second);
            EXPECT_TRUE(ae <= bi || be <= ai)
                << "overlap " << ai << " " << bi;
        }
    }
}

TEST(Buddy, IsFreeDetectsStates)
{
    BuddyAllocator buddy(1 << 10);
    EXPECT_TRUE(buddy.isFree(0, 10));
    auto pfn = buddy.alloc(0);
    EXPECT_FALSE(buddy.isFree(*pfn, 0));
    EXPECT_FALSE(buddy.isFree(0, 10));
    EXPECT_TRUE(buddy.isFree(1, 0));
    // A region tiled by two free halves (after the split) is free.
    EXPECT_TRUE(buddy.isFree(2, 1));
}

TEST(Buddy, AllocSpecificCarvesExactBlock)
{
    BuddyAllocator buddy(1 << 10);
    EXPECT_TRUE(buddy.allocSpecific(0x80, 3));
    EXPECT_FALSE(buddy.isFree(0x80, 3));
    EXPECT_EQ(buddy.freeFrames(), (1u << 10) - 8);
    // The same block cannot be taken twice.
    EXPECT_FALSE(buddy.allocSpecific(0x80, 3));
    // Another block still works.
    EXPECT_TRUE(buddy.allocSpecific(0x100, 4));
    buddy.free(0x80, 3);
    buddy.free(0x100, 4);
    EXPECT_EQ(buddy.freeFrames(), 1u << 10);
    EXPECT_EQ(buddy.freeListCounts()[10], 1u);
}

TEST(Buddy, AllocSpecificAcrossTiledHalves)
{
    BuddyAllocator buddy(1 << 6);
    // Split memory by allocating and freeing to produce two free
    // order-2 buddies, then claim the enclosing order-3 block.
    ASSERT_TRUE(buddy.allocSpecific(0, 2));
    ASSERT_TRUE(buddy.allocSpecific(4, 2));
    buddy.free(0, 2);
    // State: [0,4) free (order 2), [4,8) used. Claim [0,4).
    EXPECT_TRUE(buddy.allocSpecific(0, 2));
    buddy.free(0, 2);
    buddy.free(4, 2);
    EXPECT_EQ(buddy.freeFrames(), 1u << 6);
}

TEST(Buddy, LargestAvailable)
{
    BuddyAllocator buddy(1 << 10);
    EXPECT_EQ(buddy.largestAvailable(18), 10u);
    EXPECT_EQ(buddy.largestAvailable(4), 4u);
    buddy.alloc(0);   // splits the big block
    EXPECT_EQ(buddy.largestAvailable(18), 9u);
}

TEST(Buddy, CoverageAllFreeIsFullAtSmallOrders)
{
    BuddyAllocator buddy(1 << 10);
    EXPECT_DOUBLE_EQ(buddy.coverageAt(0), 1.0);
    EXPECT_DOUBLE_EQ(buddy.coverageAt(10), 1.0);
}

TEST(Buddy, CoverageDropsWithFragmentation)
{
    BuddyAllocator buddy(1 << 6);
    // Allocate every other order-0 frame from the first half.
    std::vector<Pfn> held;
    for (int i = 0; i < 16; ++i) {
        auto pfn = buddy.alloc(0);
        ASSERT_TRUE(pfn);
        held.push_back(*pfn);
    }
    for (size_t i = 0; i < held.size(); i += 2)
        buddy.free(held[i], 0);
    // Order-0 coverage is always 1; higher orders lose the holes.
    EXPECT_DOUBLE_EQ(buddy.coverageAt(0), 1.0);
    EXPECT_LT(buddy.coverageAt(3), 1.0);
    // Coverage is monotonically non-increasing in order.
    double prev = 1.0;
    for (unsigned o = 0; o <= 6; ++o) {
        double c = buddy.coverageAt(o);
        EXPECT_LE(c, prev + 1e-12) << o;
        prev = c;
    }
}

TEST(Buddy, FragmentationIndex)
{
    BuddyAllocator buddy(1 << 10);
    EXPECT_DOUBLE_EQ(buddy.fragmentationIndex(), 0.0);
    auto pfn = buddy.alloc(0);
    (void)pfn;
    EXPECT_GT(buddy.fragmentationIndex(), 0.0);
}

TEST(BuddyDeathTest, ExactDoubleFreePanics)
{
    // Frame 1 stays allocated, so the first free of frame 0 cannot
    // merge and the second one finds frame 0 already on its free list.
    // Accepting it would report every frame free while frame 1 is held.
    BuddyAllocator buddy(1024);
    ASSERT_EQ(buddy.alloc(0), Pfn{0});
    ASSERT_EQ(buddy.alloc(0), Pfn{1});
    buddy.free(0, 0);
    EXPECT_EQ(buddy.freeFrames(), 1023u);
    EXPECT_DEATH(buddy.free(0, 0), "assertion failed");
}

TEST(Buddy, StressRandomAllocFreeConservesFrames)
{
    BuddyAllocator buddy(1 << 14);
    Pcg32 rng(31337);
    std::vector<std::pair<Pfn, unsigned>> held;
    for (int i = 0; i < 5000; ++i) {
        if (!held.empty() && rng.chance(0.5)) {
            size_t idx = rng.below(static_cast<uint32_t>(held.size()));
            buddy.free(held[idx].first, held[idx].second);
            held[idx] = held.back();
            held.pop_back();
        } else {
            unsigned order = rng.below(6);
            auto pfn = buddy.alloc(order);
            if (pfn)
                held.push_back({*pfn, order});
        }
        uint64_t held_frames = 0;
        for (auto &[p, o] : held)
            held_frames += 1ull << o;
        ASSERT_EQ(buddy.freeFrames() + held_frames,
                  buddy.totalFrames());
    }
    for (auto &[p, o] : held)
        buddy.free(p, o);
    EXPECT_EQ(buddy.freeFrames(), buddy.totalFrames());
    // Everything merged back to maximal blocks.
    EXPECT_EQ(buddy.freeListCounts()[14], 1u);
}

} // namespace
} // namespace tps::os
