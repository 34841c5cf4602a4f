/**
 * @file
 * util::Memo tests: concurrent first requests for one key share one
 * build, different keys build concurrently, a build that throws leaves
 * no entry, and ZipfSampler's memoized normaliser gives every thread
 * the same sampler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/memo.hh"
#include "util/rng.hh"

namespace tps::util {
namespace {

/** Start @p n threads running body(i) together; join them all. */
template <typename Body>
void
runTogether(unsigned n, const Body &body)
{
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            body(i);
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
}

TEST(Memo, ConcurrentCallersShareOneBuild)
{
    Memo<int, std::shared_ptr<const int>> memo;
    std::atomic<int> calls{0};
    std::vector<std::shared_ptr<const int>> got(8);
    runTogether(8, [&](unsigned i) {
        got[i] = memo.get(7, [&] {
            calls.fetch_add(1);
            // Long enough that the other callers arrive mid-build.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::make_shared<const int>(49);
        });
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(memo.builds(), 1u);
    for (const auto &p : got) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, got[0]);  // one object, not equal copies
        EXPECT_EQ(*p, 49);
    }
}

TEST(Memo, DifferentKeysBuildConcurrently)
{
    // Key 1's build waits for key 2's to start; a memo that built
    // under its lock would stall here until the timeout.
    Memo<int, int> memo;
    std::promise<void> started2;
    std::shared_future<void> two_started = started2.get_future().share();
    std::vector<int> got(2);
    runTogether(2, [&](unsigned i) {
        if (i == 0) {
            got[0] = memo.get(1, [&] {
                bool ok = two_started.wait_for(std::chrono::seconds(30)) ==
                          std::future_status::ready;
                return ok ? 10 : -1;
            });
        } else {
            got[1] = memo.get(2, [&] {
                started2.set_value();
                return 20;
            });
        }
    });
    EXPECT_EQ(got[0], 10);
    EXPECT_EQ(got[1], 20);
    EXPECT_EQ(memo.builds(), 2u);
}

TEST(Memo, BuildThatThrowsLeavesNoEntry)
{
    Memo<int, int> memo;
    EXPECT_THROW(memo.get(3, []() -> int { throw std::bad_alloc(); }),
                 std::bad_alloc);
    // A later call rebuilds; the one after that is a hit.
    EXPECT_EQ(memo.get(3, [] { return 9; }), 9);
    EXPECT_EQ(memo.get(3, [] { return -1; }), 9);
    EXPECT_EQ(memo.builds(), 2u);
}

TEST(Memo, ZipfSamplersOfOneKeyShareOneNormaliser)
{
    // A key no other test uses, below the exact-sum cap, so the
    // expected normaliser is the plain sum in the same order.
    constexpr uint64_t kN = 100003;
    constexpr double kTheta = 0.8125;
    constexpr unsigned kThreads = 4;
    constexpr int kSamples = 10000;
    uint64_t builds_before = ZipfSampler::zetaBuilds();
    std::vector<double> zetan(kThreads);
    std::vector<std::vector<uint64_t>> samples(kThreads);
    runTogether(kThreads, [&](unsigned i) {
        ZipfSampler z(kN, kTheta);
        zetan[i] = z.zetan();
        Pcg32 rng(0x21bf);
        for (int s = 0; s < kSamples; ++s)
            samples[i].push_back(z.sample(rng));
    });
    EXPECT_EQ(ZipfSampler::zetaBuilds(), builds_before + 1);

    double expected = 0.0;
    for (uint64_t i = 1; i <= kN; ++i)
        expected += std::pow(1.0 / static_cast<double>(i), kTheta);
    for (unsigned i = 0; i < kThreads; ++i) {
        EXPECT_EQ(std::memcmp(&zetan[i], &expected, sizeof expected), 0)
            << "thread " << i << ": " << zetan[i] << " vs " << expected;
        EXPECT_EQ(samples[i], samples[0]) << "thread " << i;
    }
}

} // namespace
} // namespace tps::util
