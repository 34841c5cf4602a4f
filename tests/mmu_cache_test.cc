/**
 * @file
 * MMU (paging-structure) cache tests: per-level hit/miss behaviour,
 * LRU replacement, generation-based and explicit invalidation.
 */

#include <gtest/gtest.h>

#include "vm/mmu_cache.hh"
#include "vm/page_table.hh"

namespace tps::vm {
namespace {

class MmuCacheTest : public ::testing::Test
{
  protected:
    MmuCacheTest() : pt_(provider_) {}

    PageTableNode *
    fakeNode(size_t i)
    {
        while (nodes_.size() <= i)
            nodes_.push_back(std::make_unique<PageTableNode>());
        return nodes_[i].get();
    }

    SyntheticFrameProvider provider_;
    PageTable pt_;
    std::vector<std::unique_ptr<PageTableNode>> nodes_;
};

TEST_F(MmuCacheTest, MissWhenEmpty)
{
    MmuCache cache;
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(0x1234000, 0, node), 0u);
}

TEST_F(MmuCacheTest, FillAndHitAtEachLevel)
{
    for (unsigned level = 2; level <= kLevels; ++level) {
        MmuCache cache;
        Vaddr va = 0x123456789000ull;
        cache.fill(va, level, 0, fakeNode(level));
        PageTableNode *node = nullptr;
        EXPECT_EQ(cache.lookup(va, 0, node), level);
        EXPECT_EQ(node, fakeNode(level));
    }
}

TEST_F(MmuCacheTest, DeepestLevelWins)
{
    MmuCache cache;
    Vaddr va = 0x40000000000ull;
    cache.fill(va, 4, 0, fakeNode(4));
    cache.fill(va, 3, 0, fakeNode(3));
    cache.fill(va, 2, 0, fakeNode(2));
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(va, 0, node), 2u);
    EXPECT_EQ(node, fakeNode(2));
}

TEST_F(MmuCacheTest, PrefixMatchingRespectsLevelGranularity)
{
    MmuCache cache;
    Vaddr va = 0x40000000000ull;
    cache.fill(va, 2, 0, fakeNode(0));
    PageTableNode *node = nullptr;
    // Same 2 MB region: hit.
    EXPECT_EQ(cache.lookup(va + 0x1ff000, 0, node), 2u);
    // Next 2 MB region: miss at PDE level.
    EXPECT_EQ(cache.lookup(va + 0x200000, 0, node), 0u);
}

TEST_F(MmuCacheTest, StaleGenerationMisses)
{
    MmuCache cache;
    Vaddr va = 0x1000000ull;
    cache.fill(va, 2, 7, fakeNode(0));
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(va, 7, node), 2u);
    EXPECT_EQ(cache.lookup(va, 8, node), 0u);
}

TEST_F(MmuCacheTest, LruEviction)
{
    MmuCacheConfig cfg;
    cfg.pdeEntries = 2;
    MmuCache cache(cfg);
    cache.fill(0ull << 21, 2, 0, fakeNode(0));
    cache.fill(1ull << 21, 2, 0, fakeNode(1));
    PageTableNode *node = nullptr;
    // Touch entry 0 so entry 1 is LRU.
    EXPECT_EQ(cache.lookup(0ull << 21, 0, node), 2u);
    cache.fill(2ull << 21, 2, 0, fakeNode(2));
    EXPECT_EQ(cache.lookup(1ull << 21, 0, node), 0u);   // evicted
    EXPECT_EQ(cache.lookup(0ull << 21, 0, node), 2u);   // survived
    EXPECT_EQ(cache.lookup(2ull << 21, 0, node), 2u);
}

TEST_F(MmuCacheTest, InvalidateSingleAddress)
{
    MmuCache cache;
    cache.fill(0x1000000, 2, 0, fakeNode(0));
    cache.fill(0x2000000, 2, 0, fakeNode(1));
    cache.invalidate(0x1000000);
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(0x1000000, 0, node), 0u);
    EXPECT_EQ(cache.lookup(0x2000000, 0, node), 2u);
}

TEST_F(MmuCacheTest, InvalidateAll)
{
    MmuCache cache;
    cache.fill(0x1000000, 2, 0, fakeNode(0));
    cache.fill(0x1000000, 3, 0, fakeNode(1));
    cache.invalidateAll();
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(0x1000000, 0, node), 0u);
}

TEST_F(MmuCacheTest, RefillUpdatesExistingEntry)
{
    MmuCache cache;
    cache.fill(0x1000000, 2, 0, fakeNode(0));
    cache.fill(0x1000000, 2, 0, fakeNode(1));
    PageTableNode *node = nullptr;
    EXPECT_EQ(cache.lookup(0x1000000, 0, node), 2u);
    EXPECT_EQ(node, fakeNode(1));
}

} // namespace
} // namespace tps::vm
