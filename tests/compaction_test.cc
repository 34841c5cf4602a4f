/**
 * @file
 * Compaction-daemon, page-merge, and fragmenter tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "os/compaction.hh"
#include "os/fragmenter.hh"
#include "os/policy_common.hh"
#include "util/rng.hh"

namespace tps::os {
namespace {

TEST(Compaction, MigratesBlocksDownward)
{
    BuddyAllocator buddy(1 << 12);
    // Scatter allocations, then free the low ones so movable blocks sit
    // high with free space below.
    std::vector<MovableBlock> movable;
    std::vector<Pfn> low;
    for (int i = 0; i < 32; ++i) {
        auto pfn = buddy.alloc(4);
        ASSERT_TRUE(pfn);
        if (i < 16)
            low.push_back(*pfn);
        else
            movable.push_back({*pfn, 4});
    }
    for (Pfn pfn : low)
        buddy.free(pfn, 4);

    double frag_before = buddy.fragmentationIndex();
    CompactionDaemon daemon(buddy);
    std::vector<std::pair<Pfn, Pfn>> moves;
    uint64_t moved = daemon.compact(
        movable,
        [&](Pfn from, Pfn to, unsigned) { moves.emplace_back(from, to); },
        1000);
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(moves.size(), moved);
    for (auto [from, to] : moves)
        EXPECT_LT(to, from);
    EXPECT_LE(buddy.fragmentationIndex(), frag_before);
    // Frame count conserved: only the 16 movable blocks remain held.
    EXPECT_EQ(buddy.freeFrames(), (1u << 12) - 16 * 16);
}

TEST(Compaction, NoMovesWhenAlreadyCompact)
{
    BuddyAllocator buddy(1 << 10);
    std::vector<MovableBlock> movable;
    for (int i = 0; i < 4; ++i)
        movable.push_back({*buddy.alloc(2), 2});
    CompactionDaemon daemon(buddy);
    uint64_t moved =
        daemon.compact(movable, [](Pfn, Pfn, unsigned) {}, 1000);
    EXPECT_EQ(moved, 0u);
}

TEST(Compaction, RespectsMoveBudget)
{
    BuddyAllocator buddy(1 << 12);
    std::vector<MovableBlock> movable;
    std::vector<Pfn> low;
    for (int i = 0; i < 32; ++i) {
        auto pfn = buddy.alloc(2);
        if (i < 16)
            low.push_back(*pfn);
        else
            movable.push_back({*pfn, 2});
    }
    for (Pfn pfn : low)
        buddy.free(pfn, 2);
    CompactionDaemon daemon(buddy);
    EXPECT_LE(daemon.compact(movable, [](Pfn, Pfn, unsigned) {}, 3),
              3u);
}

TEST(MergePass, MergesAdjacentFullReservations)
{
    PhysMemory pm(512ull << 20);
    AddressSpace as(pm, std::make_unique<TpsPolicy>());
    // Fragment physical memory so a 128 KB mmap is backed by two
    // *non-adjacent* 64 KB reservations: consume every order-5+ block,
    // then free two scattered order-4 (64 KB) halves.
    BuddyAllocator &buddy = pm.buddy();
    std::vector<Pfn> held;
    while (auto pfn = buddy.alloc(5))
        held.push_back(*pfn);
    ASSERT_GT(held.size(), 40u);
    buddy.free(held[10], 4);          // low half of one held block
    buddy.free(held[20] + 16, 4);     // high half of another

    vm::Vaddr va = as.mmap(128 << 10);
    for (uint64_t off = 0; off < (128 << 10); off += 0x1000)
        ASSERT_TRUE(as.handleFault(va + off, true));
    ASSERT_EQ(as.reservations().size(), 2u);
    EXPECT_EQ(as.pageSizeCensus().at(16), 2u);

    // Free one whole order-5 block so the merged 128 KB block fits.
    buddy.free(held[30], 5);

    uint64_t merges = mergeReservationPass(as, 10);
    EXPECT_EQ(merges, 1u);
    EXPECT_EQ(as.reservations().size(), 1u);
    Histogram census = as.pageSizeCensus();
    EXPECT_EQ(census.at(17), 1u);   // one 128 KB page
    EXPECT_EQ(census.total(), 1u);
    // Translation still valid everywhere.
    for (uint64_t off = 0; off < (128 << 10); off += 0x1000)
        ASSERT_TRUE(as.pageTable().lookup(va + off).has_value());
}

TEST(MergePass, NoCandidatesNoMerges)
{
    PhysMemory pm(256ull << 20);
    AddressSpace as(pm, std::make_unique<TpsPolicy>());
    vm::Vaddr va = as.mmap(64 << 10);
    for (uint64_t off = 0; off < (64 << 10); off += 0x1000)
        as.handleFault(va + off, true);
    // Single fully promoted reservation: nothing to merge.
    EXPECT_EQ(mergeReservationPass(as, 10), 0u);
}

TEST(Fragmenter, ReachesTargetFreeFraction)
{
    PhysMemory pm(256ull << 20);
    FragmenterConfig cfg;
    cfg.targetFreeFraction = 0.3;
    cfg.churnOps = 20000;
    Fragmenter frag(pm, cfg);
    frag.run();
    double free_frac = static_cast<double>(pm.buddy().freeFrames()) /
                       static_cast<double>(pm.buddy().totalFrames());
    EXPECT_NEAR(free_frac, 0.3, 0.1);
    EXPECT_GT(frag.held().size(), 0u);
}

TEST(Fragmenter, ProducesIntermediateContiguity)
{
    PhysMemory pm(256ull << 20);
    Fragmenter frag(pm, FragmenterConfig{});
    frag.run();
    const BuddyAllocator &buddy = pm.buddy();
    // The paper's Fig. 15 shape: full coverage at 4 KB, substantial
    // intermediate coverage, little at huge sizes.
    EXPECT_DOUBLE_EQ(buddy.coverageAt(0), 1.0);
    EXPECT_GT(buddy.coverageAt(3), 0.2);    // 32 KB
    EXPECT_LT(buddy.coverageAt(9), buddy.coverageAt(3));
    EXPECT_LT(buddy.coverageAt(12), 0.6);   // 16 MB pages are rare
}

TEST(Fragmenter, Deterministic)
{
    FragmenterConfig cfg;
    cfg.churnOps = 5000;
    PhysMemory a(128ull << 20), b(128ull << 20);
    Fragmenter fa(a, cfg), fb(b, cfg);
    fa.run();
    fb.run();
    EXPECT_EQ(a.buddy().freeListCounts(), b.buddy().freeListCounts());
}

TEST(Fragmenter, ReleaseAllRestoresMemory)
{
    PhysMemory pm(128ull << 20);
    Fragmenter frag(pm, FragmenterConfig{});
    frag.run();
    frag.releaseAll();
    EXPECT_EQ(pm.buddy().freeFrames(), pm.buddy().totalFrames());
}

/**
 * Stable digest of an aged state: the held blocks, every free list in
 * ascending order, the allocator counters and the free frame count.
 */
uint64_t
agedStateDigest(uint64_t total_frames, bool dense, FragmenterConfig cfg)
{
    PhysMemory pm(total_frames << vm::kBasePageBits, dense);
    Fragmenter frag(pm, cfg);
    frag.run();
    const BuddyAllocator &buddy = pm.buddy();
    std::string bytes;
    auto put = [&](uint64_t v) {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    };
    for (auto [pfn, order] : frag.held()) {
        put(pfn);
        put(order);
    }
    for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o) {
        put(~0ull);
        buddy.forEachFreeBlock(o, [&](Pfn pfn) { put(pfn); });
    }
    const BuddyStats &st = buddy.stats();
    for (uint64_t v : {st.allocs, st.frees, st.splits, st.merges,
                       st.failedAllocs, buddy.freeFrames()})
        put(v);
    return stableHash64(bytes);
}

TEST(Fragmenter, AgedStatePinnedAcrossBuilds)
{
    // Pinned from the std::set free-list allocator; any change to the
    // free-list representation or to order sampling must leave every
    // aged block, free list and counter where it was.
    const uint64_t k8g = (8ull << 30) >> vm::kBasePageBits;
    FragmenterConfig ragged;
    ragged.churnOps = 5000;
    struct Case
    {
        uint64_t frames;
        bool dense;
        FragmenterConfig cfg;
        uint64_t digest;
    };
    const Case cases[] = {
        {k8g, false, FragmenterConfig{}, 0x887d40d357128061ull},
        {k8g, true, FragmenterConfig{}, 0x887d40d357128061ull},
        {(1ull << 19) + 12345, false, ragged, 0x1765ab53b2735101ull},
        {(1ull << 19) + 12345, true, ragged, 0x1765ab53b2735101ull},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(agedStateDigest(c.frames, c.dense, c.cfg), c.digest)
            << "frames " << c.frames << " dense " << c.dense;
    }
}

} // namespace
} // namespace tps::os
