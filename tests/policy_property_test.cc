/**
 * @file
 * Property tests over the paging policies: for random touch sequences
 * across a grid of (policy, threshold, VMA size, pattern), the core
 * invariants must hold --
 *
 *  1. every touched address translates, and to a stable frame: the
 *     byte a process wrote to is the byte it reads back, across any
 *     number of promotions;
 *  2. at a 100% threshold, committed bytes equal touched bytes exactly
 *     (the paper's zero-bloat guarantee);
 *  3. at lower thresholds, committed >= touched and never exceeds the
 *     reservation-rounded bound;
 *  4. physical frames of distinct pages never overlap;
 *  5. teardown returns every frame.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "os/address_space.hh"
#include "os/policy_common.hh"
#include "os/policy_rmm.hh"
#include "util/rng.hh"

namespace tps::os {
namespace {

/** (policy factory, threshold, vma bytes, sequential?) */
struct Param
{
    const char *name;
    int policy;          //!< 0=thp 1=tps 2=colt 3=base4k 4=rmm
    double threshold;
    uint64_t vmaBytes;
    bool sequential;
};

/**
 * gtest prints an unprintable param as its raw bytes, which here hold
 * the address of `name` and uninitialised padding; that would make
 * the listed test names change from one process to the next.
 */
void
PrintTo(const Param &p, std::ostream *os)
{
    *os << p.name;
}

std::unique_ptr<PagingPolicy>
makeFor(const Param &p)
{
    switch (p.policy) {
      case 0:
        return std::make_unique<ThpPolicy>();
      case 1: {
        TpsPolicyConfig cfg;
        cfg.threshold = p.threshold;
        return std::make_unique<TpsPolicy>(cfg);
      }
      case 2:
        return std::make_unique<ColtPolicy>();
      case 3:
        return std::make_unique<Base4kPolicy>();
      default:
        return std::make_unique<RmmPolicy>();
    }
}

class PolicyProperty : public ::testing::TestWithParam<Param>
{
};

TEST_P(PolicyProperty, InvariantsUnderRandomTouching)
{
    const Param &p = GetParam();
    PhysMemory pm(1ull << 30);
    uint64_t free_before = pm.freeBytes();
    {
        AddressSpace as(pm, makeFor(p));
        vm::Vaddr va = as.mmap(p.vmaBytes);
        Pcg32 rng(0xFEED + p.policy);

        // Record the frame each touched page first landed in; it may
        // only change if the *page* changed (promotion keeps frames).
        std::map<vm::Vaddr, vm::Paddr> first_pa;
        uint64_t pages = p.vmaBytes >> vm::kBasePageBits;
        uint64_t touches = p.sequential ? pages : pages / 2;

        for (uint64_t i = 0; i < touches; ++i) {
            uint64_t page =
                p.sequential ? i : rng.below64(pages);
            vm::Vaddr addr = va + (page << vm::kBasePageBits);
            if (!as.pageTable().lookup(addr)) {
                ASSERT_TRUE(as.handleFault(addr, true));
            }
            auto res = as.pageTable().lookup(addr);
            ASSERT_TRUE(res.has_value());
            vm::Paddr pa =
                (res->leaf.pfn << vm::kBasePageBits) +
                vm::pageOffset(addr, res->leaf.pageBits);
            auto [it, fresh] = first_pa.emplace(addr, pa);
            // Invariant 1: translation is stable across promotions
            // (no frame migration in the reservation scheme).
            EXPECT_EQ(it->second, pa) << std::hex << addr;
        }

        // Invariant 1b: everything touched still translates.
        for (const auto &[addr, pa] : first_pa) {
            auto res = as.pageTable().lookup(addr);
            ASSERT_TRUE(res.has_value()) << std::hex << addr;
        }

        // Invariants 2/3: bloat accounting.
        uint64_t touched_bytes = first_pa.size()
                                 << vm::kBasePageBits;
        uint64_t mapped = as.mappedBytes();
        if (p.policy == 1 && p.threshold == 1.0) {
            EXPECT_EQ(mapped, touched_bytes);
        } else if (p.policy == 3) {
            EXPECT_EQ(mapped, touched_bytes);
        } else if (p.policy == 4) {
            // RMM is eager: everything is mapped up front.
            EXPECT_EQ(mapped, alignUp(p.vmaBytes, 4096));
        } else {
            EXPECT_GE(mapped, touched_bytes);
            EXPECT_LE(mapped, alignUp(p.vmaBytes, 2ull << 20));
        }

        // Invariant 4: no two leaves overlap physically.
        std::vector<std::pair<vm::Pfn, uint64_t>> extents;
        as.pageTable().forEachLeaf(
            [&](vm::Vaddr, const vm::LeafInfo &leaf) {
                extents.emplace_back(
                    leaf.pfn,
                    1ull << (leaf.pageBits - vm::kBasePageBits));
            });
        std::sort(extents.begin(), extents.end());
        for (size_t i = 1; i < extents.size(); ++i) {
            EXPECT_LE(extents[i - 1].first + extents[i - 1].second,
                      extents[i].first)
                << "physical overlap";
        }
    }
    // Invariant 5: everything returned.
    EXPECT_EQ(pm.freeBytes(), free_before);
    EXPECT_EQ(pm.stats().appFrames, 0u);
    EXPECT_EQ(pm.stats().reservedFrames, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyProperty,
    ::testing::Values(
        Param{"thp_seq", 0, 1.0, 8ull << 20, true},
        Param{"thp_rand", 0, 1.0, 8ull << 20, false},
        Param{"tps100_seq", 1, 1.0, 8ull << 20, true},
        Param{"tps100_rand", 1, 1.0, 8ull << 20, false},
        Param{"tps50_seq", 1, 0.5, 8ull << 20, true},
        Param{"tps50_rand", 1, 0.5, 8ull << 20, false},
        Param{"tps75_rand", 1, 0.75, 16ull << 20, false},
        Param{"tps100_odd_size", 1, 1.0, (8ull << 20) + 0x5000, true},
        Param{"colt_seq", 2, 1.0, 8ull << 20, true},
        Param{"colt_rand", 2, 1.0, 8ull << 20, false},
        Param{"base4k_rand", 3, 1.0, 4ull << 20, false},
        Param{"rmm_seq", 4, 1.0, 8ull << 20, true},
        Param{"rmm_rand", 4, 1.0, 8ull << 20, false}),
    [](const ::testing::TestParamInfo<Param> &info) {
        return info.param.name;
    });

/** Threshold monotonicity: lower thresholds never map fewer bytes. */
TEST(PolicyProperty, ThresholdMonotonicBloat)
{
    uint64_t prev_mapped = 0;
    for (double threshold : {1.0, 0.75, 0.5, 0.25}) {
        PhysMemory pm(1ull << 30);
        TpsPolicyConfig cfg;
        cfg.threshold = threshold;
        AddressSpace as(pm, std::make_unique<TpsPolicy>(cfg));
        vm::Vaddr va = as.mmap(16ull << 20);
        Pcg32 rng(99);
        for (int i = 0; i < 2048; ++i) {
            vm::Vaddr addr =
                va + (rng.below64(4096) << vm::kBasePageBits);
            if (!as.pageTable().lookup(addr))
                as.handleFault(addr, true);
        }
        uint64_t mapped = as.mappedBytes();
        // Lower thresholds promote earlier, committing gap pages the
        // process never touched: bloat grows monotonically.
        EXPECT_GE(mapped, prev_mapped) << threshold;
        prev_mapped = mapped;
    }
}

/** Promotion reduces page count monotonically as touching completes. */
TEST(PolicyProperty, PageCountShrinksAsRegionFills)
{
    PhysMemory pm(1ull << 30);
    AddressSpace as(pm, std::make_unique<TpsPolicy>());
    vm::Vaddr va = as.mmap(4ull << 20);
    uint64_t pages = (4ull << 20) >> vm::kBasePageBits;
    uint64_t peak = 0;
    for (uint64_t i = 0; i < pages; ++i) {
        as.handleFault(va + (i << vm::kBasePageBits), true);
        peak = std::max(peak, as.pageSizeCensus().total());
    }
    // Fully touched: a single 4 MB page; the peak was much higher.
    EXPECT_EQ(as.pageSizeCensus().total(), 1u);
    EXPECT_GT(peak, 1u);
}

} // namespace
} // namespace tps::os
