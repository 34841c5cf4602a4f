/**
 * @file
 * OrderedBitmapSet against a std::set model: seeded random
 * insert/erase/first/contains/ascending-visit sequences whose indices
 * cluster at word, summary-word and chunk edges and at the last index
 * of non-power-of-two capacities.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bitmap_set.hh"
#include "util/rng.hh"

namespace tps {
namespace {

/** Every observable of @p s agrees with the model @p m. */
void
expectMatchesModel(const OrderedBitmapSet &s, const std::set<uint64_t> &m)
{
    ASSERT_EQ(s.size(), m.size());
    ASSERT_EQ(s.empty(), m.empty());
    if (!m.empty()) {
        ASSERT_EQ(s.first(), *m.begin());
    }
    std::vector<uint64_t> visited;
    s.forEach([&](uint64_t i) { visited.push_back(i); });
    ASSERT_EQ(visited, std::vector<uint64_t>(m.begin(), m.end()));
}

/**
 * Indices where the layout changes: either side of each 64-index word,
 * 4096-index summary word and chunk boundary, plus both ends.
 */
std::vector<uint64_t>
edgeIndices(uint64_t capacity)
{
    std::vector<uint64_t> edges = {0, capacity - 1};
    if (capacity >= 2) {
        edges.push_back(1);
        edges.push_back(capacity - 2);
    }
    for (uint64_t step : {uint64_t{64}, uint64_t{64 * 64},
                          OrderedBitmapSet::kChunkIndices}) {
        for (uint64_t b = step; b < capacity; b += step) {
            edges.push_back(b - 1);
            edges.push_back(b);
        }
    }
    return edges;
}

void
runDifferential(uint64_t capacity, uint64_t seed)
{
    OrderedBitmapSet s(capacity);
    std::set<uint64_t> m;
    Pcg32 rng(seed, 0xb17);
    const std::vector<uint64_t> edges = edgeIndices(capacity);
    auto pick = [&] {
        return rng.chance(0.5) ? edges[rng.below(
                                     static_cast<uint32_t>(edges.size()))]
                               : rng.below64(capacity);
    };
    for (int step = 0; step < 20000; ++step) {
        uint64_t i = pick();
        unsigned action = rng.below(8);
        if (action < 3) {
            if (m.insert(i).second)
                s.insert(i);
        } else if (action < 6) {
            ASSERT_EQ(s.erase(i), m.erase(i) == 1) << i;
        } else if (action < 7 && !m.empty()) {
            // Pop the lowest member, as the buddy allocator does.
            uint64_t lo = s.first();
            ASSERT_EQ(lo, *m.begin());
            ASSERT_TRUE(s.erase(lo));
            m.erase(m.begin());
        } else {
            ASSERT_EQ(s.contains(i), m.count(i) == 1) << i;
        }
        if (step % 1000 == 0)
            expectMatchesModel(s, m);
    }
    expectMatchesModel(s, m);
    // Indices at and past capacity are never members.
    EXPECT_FALSE(s.contains(capacity));
    EXPECT_FALSE(s.erase(capacity));
    // Drain in ascending order through first().
    while (!m.empty()) {
        ASSERT_EQ(s.first(), *m.begin());
        ASSERT_TRUE(s.erase(*m.begin()));
        m.erase(m.begin());
    }
    expectMatchesModel(s, m);
}

TEST(OrderedBitmapSet, RandomSequencesMatchStdSet)
{
    // One word, a ragged last word, a ragged summary word, exactly one
    // chunk, a ragged last chunk over several top-level words.
    runDifferential(1, 1);
    runDifferential(64, 2);
    runDifferential(100, 3);
    runDifferential(64 * 64 + 7, 4);
    runDifferential(OrderedBitmapSet::kChunkIndices, 5);
    runDifferential(3 * OrderedBitmapSet::kChunkIndices + 12345, 6);
    runDifferential((64ull << 12) * 3 + 1, 7);
}

TEST(OrderedBitmapSet, EmptySetHasNoMembers)
{
    OrderedBitmapSet s(0);
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(0));
    EXPECT_FALSE(s.erase(0));
    s.forEach([](uint64_t) { FAIL(); });
}

TEST(OrderedBitmapSetDeathTest, DuplicateInsertPanics)
{
    OrderedBitmapSet s(1000);
    s.insert(999);
    EXPECT_DEATH(s.insert(999), "assertion failed");
}

} // namespace
} // namespace tps
