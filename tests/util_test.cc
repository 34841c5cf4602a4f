/**
 * @file
 * Unit tests for util: bit operations, RNG determinism and
 * distributions, statistics accumulators, table formatting, strict
 * number parsing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include <sstream>
#include <thread>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace tps {
namespace {

TEST(BitOps, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
}

TEST(BitOps, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4096), 12u);
    EXPECT_EQ(log2Floor(4097), 12u);
    EXPECT_EQ(log2Floor(~0ull), 63u);
}

TEST(BitOps, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4096), 12u);
    EXPECT_EQ(log2Ceil(4097), 13u);
}

TEST(BitOps, AlignDownUp)
{
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_EQ(alignUp(0x12000, 0x1000), 0x12000u);
    EXPECT_EQ(alignDown(0x12000, 0x1000), 0x12000u);
    EXPECT_TRUE(isAligned(0x200000, 0x200000));
    EXPECT_FALSE(isAligned(0x201000, 0x200000));
}

TEST(BitOps, BitsAndMasks)
{
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFull);
    EXPECT_EQ(bits(0xABCD, 3, 0), 0xDull);
    EXPECT_EQ(mask(3, 0), 0xFull);
    EXPECT_EQ(mask(15, 8), 0xFF00ull);
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(12), 0xFFFull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(BitOps, CountTrailingOnes)
{
    EXPECT_EQ(countTrailingOnes(0b0000), 0u);
    EXPECT_EQ(countTrailingOnes(0b0001), 1u);
    EXPECT_EQ(countTrailingOnes(0b0111), 3u);
    EXPECT_EQ(countTrailingOnes(0b1011), 2u);
    EXPECT_EQ(countTrailingOnes(~0ull), 64u);
}

TEST(BitOps, LargestAlignedPow2)
{
    // 28 KB at a 16 KB-aligned address: the 16 KB block leads.
    EXPECT_EQ(largestAlignedPow2(0x4000, 0x7000), 0x4000u);
    // Alignment limits more than length.
    EXPECT_EQ(largestAlignedPow2(0x1000, 0x100000), 0x1000u);
    // Length limits more than alignment.
    EXPECT_EQ(largestAlignedPow2(0x100000, 0x3000), 0x2000u);
    // Zero address counts as maximally aligned.
    EXPECT_EQ(largestAlignedPow2(0, 0x6000), 0x4000u);
}

TEST(BitOps, GreedyDecompositionCoversExactly)
{
    // Sum of greedy blocks equals the length for many (addr, len).
    for (uint64_t addr : {0x0ull, 0x1000ull, 0x7000ull, 0x340000ull}) {
        for (uint64_t len = 0x1000; len < 0x40000; len += 0x3000) {
            uint64_t pos = addr, remaining = len;
            while (remaining) {
                uint64_t b = largestAlignedPow2(pos, remaining);
                ASSERT_GT(b, 0u);
                ASSERT_TRUE(isAligned(pos, b));
                pos += b;
                remaining -= b;
            }
            EXPECT_EQ(pos, addr + len);
        }
    }
}

TEST(Pcg32, Deterministic)
{
    Pcg32 a(123, 7), b(123, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsDiffer)
{
    Pcg32 a(123, 7), b(123, 8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowInRange)
{
    Pcg32 rng(1);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        EXPECT_LT(rng.below64(1ull << 40), 1ull << 40);
    }
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(2);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, BelowRoughlyUniform)
{
    Pcg32 rng(3);
    int counts[10] = {};
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Pcg32, AdvanceMatchesStepping)
{
    for (uint64_t k : {0ull, 1ull, 2ull, 31ull, 1000ull, 123457ull}) {
        Pcg32 stepped(99, 0x6006), jumped(99, 0x6006);
        for (uint64_t i = 0; i < k; ++i)
            stepped.next();
        jumped.advance(k);
        EXPECT_TRUE(jumped == stepped) << "k = " << k;
        EXPECT_EQ(jumped.next64(), stepped.next64()) << "k = " << k;
    }
}

TEST(Pcg32, AdvanceComposes)
{
    Pcg32 split(5, 11), whole(5, 11);
    split.advance(77777);
    split.advance(0x123456789ull);
    whole.advance(77777 + 0x123456789ull);
    EXPECT_TRUE(split == whole);
}

TEST(Pcg32, AdvanceWrapsAtPeriod)
{
    // The LCG's period is 2^64: 2^64 - 1 steps and one more come back
    // to the start.
    const Pcg32 start(42, 3);
    Pcg32 rng = start;
    rng.advance(~0ull);
    EXPECT_FALSE(rng == start);
    rng.next();
    EXPECT_TRUE(rng == start);
}

TEST(Zipf, UniformWhenThetaZero)
{
    Pcg32 rng(4);
    ZipfSampler z(100, 0.0);
    int low = 0;
    for (int i = 0; i < 10000; ++i)
        low += z.sample(rng) < 50;
    EXPECT_NEAR(low, 5000, 400);
}

TEST(Zipf, SkewConcentratesOnSmallValues)
{
    Pcg32 rng(5);
    ZipfSampler z(1000000, 0.99);
    int in_top = 0;
    for (int i = 0; i < 10000; ++i)
        in_top += z.sample(rng) < 1000;
    // With theta ~1, a large fraction of samples fall in the head.
    EXPECT_GT(in_top, 3000);
}

TEST(Zipf, SamplesInRange)
{
    Pcg32 rng(6);
    ZipfSampler z(50, 0.6);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 50u);
}

TEST(Rng, StableHashMatchesFnvSpec)
{
    // FNV-1a offset basis: hash of the empty string, fixed by spec.
    EXPECT_EQ(stableHash64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(stableHash64("gups"), stableHash64("gups"));
    EXPECT_NE(stableHash64("gups"), stableHash64("gupt"));
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Rng, CellSeedSeparatesCells)
{
    uint64_t a = cellSeed("gups", 1.0, 0);
    EXPECT_EQ(a, cellSeed("gups", 1.0, 0));
    EXPECT_NE(a, cellSeed("mcf", 1.0, 0));
    EXPECT_NE(a, cellSeed("gups", 0.5, 0));
    EXPECT_NE(a, cellSeed("gups", 1.0, 1ull << 30));
}

TEST(Summary, EmptySignalsEmptiness)
{
    // min()/max() of nothing must not masquerade as a real 0.0 sample.
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(-3.0);
    EXPECT_FALSE(s.empty());
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(Summary, Basics)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(8.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.geomean(), 4.0, 1e-9);
}

TEST(Summary, GeomeanRequiresPositive)
{
    Summary s;
    s.add(1.0);
    s.add(-1.0);
    EXPECT_EQ(s.geomean(), 0.0);
}

TEST(Summary, StddevKnownValues)
{
    // {2, 4, 4, 4, 5, 5, 7, 9}: sample variance 32/7.
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, StddevDegenerateCases)
{
    Summary s;
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    s.add(42.0);
    // A single sample has no spread (n-1 denominator undefined).
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    s.add(42.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, WelfordMatchesTwoPass)
{
    // Welford against the naive two-pass computation on a pseudo-random
    // stream, including a large offset that defeats the naive
    // sum-of-squares formulation.
    Pcg32 rng(77);
    Summary s;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        double v = 1e9 + rng.uniform();
        xs.push_back(v);
        s.add(v);
    }
    double mean = 0.0;
    for (double v : xs)
        mean += v;
    mean /= double(xs.size());
    double var = 0.0;
    for (double v : xs)
        var += (v - mean) * (v - mean);
    var /= double(xs.size() - 1);
    // Both sides round at the 1e9 offset; agreement to 1e-6 relative is
    // what matters (the naive sum-of-squares would be off by ~1e2).
    EXPECT_NEAR(s.variance(), var, var * 1e-6);
}

TEST(Summary, WelfordLeavesMeanAndSumUntouched)
{
    // The stddev accumulator must not perturb the pre-existing
    // fields: sum() stays the plain left-to-right addition.
    Summary s;
    double naive = 0.0;
    for (double v : {0.1, 0.2, 0.3, 1e17, 7.0}) {
        s.add(v);
        naive += v;
    }
    EXPECT_EQ(s.sum(), naive);
    EXPECT_EQ(s.mean(), naive / 5.0);
}

TEST(Histogram, AddAndQuery)
{
    Histogram h;
    h.add(12);
    h.add(12);
    h.add(21, 5);
    EXPECT_EQ(h.at(12), 2u);
    EXPECT_EQ(h.at(21), 5u);
    EXPECT_EQ(h.at(30), 0u);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.buckets().size(), 2u);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, QuantilesWeightedByCount)
{
    Histogram h;
    h.add(1, 50);
    h.add(10, 40);
    h.add(100, 9);
    h.add(1000, 1);
    EXPECT_EQ(h.quantile(0.0), 1u);   // target clamps to the 1st sample
    EXPECT_EQ(h.p50(), 1u);
    EXPECT_EQ(h.quantile(0.51), 10u);
    EXPECT_EQ(h.p95(), 100u);
    EXPECT_EQ(h.p99(), 100u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(Histogram, QuantileSingleBucket)
{
    Histogram h;
    h.add(21, 3);
    EXPECT_EQ(h.p50(), 21u);
    EXPECT_EQ(h.p99(), 21u);
}

TEST(Histogram, LimitsRouteOutliersToOverflowBuckets)
{
    Histogram h;
    h.setLimits(10, 100);
    h.add(9);          // below lo
    h.add(10);         // inclusive bounds
    h.add(100);
    h.add(101, 3);     // above hi
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.total(), 2u);       // in-range only
    EXPECT_EQ(h.grandTotal(), 6u);
    EXPECT_EQ(h.at(9), 0u);         // outliers never become buckets
    EXPECT_EQ(h.at(101), 0u);
    EXPECT_EQ(h.buckets().size(), 2u);
    // Quantiles are over in-range values only.
    EXPECT_EQ(h.p99(), 100u);

    h.clear();  // clears counts, keeps the limits
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    h.add(5);
    EXPECT_EQ(h.underflow(), 1u);
}

TEST(Histogram, UnlimitedByDefault)
{
    Histogram h;
    h.add(0);
    h.add(~0ull);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.grandTotal(), 2u);
}

TEST(Ratios, SafeDivision)
{
    EXPECT_EQ(ratio(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(percentEliminated(100, 2), 98.0);
    EXPECT_DOUBLE_EQ(percentEliminated(100, 150), -50.0);
    EXPECT_EQ(percentEliminated(0, 5), 0.0);
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, MultiByteCellPadsByDisplayWidth)
{
    // A hole's "—" is three UTF-8 bytes but one display column.
    Table t({"wl", "value"});
    t.addRow({"a", "1.0%"});
    t.addRow({"b", "—"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str(), "wl  value\n"
                        "---------\n"
                        "a    1.0%\n"
                        "b       —\n");
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CsvQuotesFieldsWithCommasAndQuotes)
{
    // fmtCount's thousands separators must not split a CSV field.
    Table t({"benchmark", "thp misses", "note"});
    t.addRow({"gups", fmtCount(25716), "say \"hi\""});
    t.addRow({"mcf", "0", "plain"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "benchmark,thp misses,note\n"
                        "gups,\"25,716\",\"say \"\"hi\"\"\"\n"
                        "mcf,0,plain\n");
}

TEST(Format, Double)
{
    EXPECT_EQ(fmtDouble(1.234, 2), "1.23");
    EXPECT_EQ(fmtDouble(1.0, 0), "1");
}

TEST(Format, DoubleNanIsEmpty)
{
    EXPECT_EQ(fmtDouble(std::nan(""), 2), "");
    EXPECT_EQ(fmtDouble(-std::nan(""), 2), "");
}

TEST(Table, CsvNanCellIsEmpty)
{
    // An empty Summary's min() is NaN; it must land in the CSV as an
    // empty cell, not the locale-dependent "nan"/"-nan" strings.
    Summary empty;
    Table t({"wl", "min"});
    t.addRow({"gups", fmtDouble(empty.min(), 2)});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "wl,min\ngups,\n");
}

TEST(Logging, WarnAndInformGoToStderr)
{
    testing::internal::CaptureStderr();
    tps_warn("spooky %d", 7);
    tps_inform("status %s", "ok");
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: spooky 7\n"), std::string::npos);
    EXPECT_NE(out.find("info: status ok\n"), std::string::npos);
}

TEST(Logging, WarnOnceFiresOncePerSite)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        tps_warn_once("once-only %d", i);
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: once-only 0\n"), std::string::npos);
    EXPECT_EQ(out.find("once-only 1"), std::string::npos);
}

TEST(Logging, WarnOncePerSiteNotGlobal)
{
    testing::internal::CaptureStderr();
    tps_warn_once("site A");
    tps_warn_once("site B");  // distinct call site, distinct flag
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("site A"), std::string::npos);
    EXPECT_NE(out.find("site B"), std::string::npos);
}

TEST(Logging, WarnOnceThreadSafe)
{
    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i)
                tps_warn_once("threaded warn");
        });
    }
    for (auto &th : threads)
        th.join();
    std::string out = testing::internal::GetCapturedStderr();
    // Exactly one occurrence across all threads and iterations.
    const std::string msg = "warn: threaded warn\n";
    size_t first = out.find(msg);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(out.find(msg, first + msg.size()), std::string::npos);
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(98.04), "98.0%");
}

TEST(Format, Size)
{
    EXPECT_EQ(fmtSize(512), "512B");
    EXPECT_EQ(fmtSize(4096), "4KB");
    EXPECT_EQ(fmtSize(2ull << 20), "2MB");
    EXPECT_EQ(fmtSize(1ull << 30), "1GB");
    EXPECT_EQ(fmtSize(32ull << 10), "32KB");
}

TEST(Format, Count)
{
    EXPECT_EQ(fmtCount(1), "1");
    EXPECT_EQ(fmtCount(1234), "1,234");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(Parse, U64AcceptsWholeDecimals)
{
    uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", &v));
    EXPECT_EQ(v, ~0ull);
}

TEST(Parse, U64RejectsSignSpaceGarbageAndOverflow)
{
    uint64_t v = 7;
    for (const char *bad : {"", "-1", "+1", " 1", " -1", "1 ", "8x", "x8",
                            "0x10", "1e3", "18446744073709551616",
                            "99999999999999999999999"}) {
        EXPECT_FALSE(parseU64(bad, &v)) << "'" << bad << "'";
    }
    EXPECT_EQ(v, 7u);  // untouched on failure
}

TEST(Parse, SizeSuffixes)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseSize("512", &v));
    EXPECT_EQ(v, 512u);
    EXPECT_TRUE(parseSize("4k", &v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(parseSize("64G", &v));
    EXPECT_EQ(v, 64ull << 30);
    EXPECT_TRUE(parseSize("1t", &v));
    EXPECT_EQ(v, 1ull << 40);
    EXPECT_TRUE(parseSize("16777215t", &v));
    EXPECT_EQ(v, 16777215ull << 40);
}

TEST(Parse, SizeRejectsBadDigitsAndSuffixOverflow)
{
    uint64_t v = 7;
    for (const char *bad : {"", "k", "-1g", "+1g", " 1g", "1gb", "1.5g",
                            "1p", "16777216t", "17179869184g",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseSize(bad, &v)) << "'" << bad << "'";
    }
    EXPECT_EQ(v, 7u);
}

TEST(Parse, F64AcceptsFiniteNumbers)
{
    double v = 0;
    EXPECT_TRUE(parseF64("0.5", &v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(parseF64("-2", &v));
    EXPECT_EQ(v, -2.0);
    EXPECT_TRUE(parseF64("1e3", &v));
    EXPECT_EQ(v, 1000.0);
}

TEST(Parse, F64RejectsNonFiniteGarbageAndOverflow)
{
    double v = 7;
    for (const char *bad : {"", " 1", "1 ", "2x", "nan", "NaN", "-nan",
                            "inf", "-inf", "infinity", "1e999", "-1e999",
                            "1e-999"}) {
        EXPECT_FALSE(parseF64(bad, &v)) << "'" << bad << "'";
    }
    EXPECT_EQ(v, 7.0);
}

} // namespace
} // namespace tps
