/**
 * @file
 * TLB-hierarchy tests: per-design structure composition, L1/L2 routing,
 * fills, the RMM parallel range-TLB path and shootdowns.
 */

#include <gtest/gtest.h>

#include "tlb/tlb_hierarchy.hh"

namespace tps::tlb {
namespace {

TlbEntry
makeEntry(Vaddr va, Pfn pfn, unsigned page_bits)
{
    vm::LeafInfo leaf;
    leaf.pfn = pfn;
    leaf.pageBits = page_bits;
    leaf.writable = true;
    leaf.user = true;
    return TlbEntry::fromLeaf(va, leaf, 0x1000);
}

TEST(Hierarchy, BaselineStructures)
{
    TlbHierarchyConfig cfg;
    TlbHierarchy h(cfg);
    EXPECT_NE(h.l1Small(), nullptr);
    EXPECT_NE(h.l1Large(), nullptr);
    EXPECT_NE(h.l1Huge(), nullptr);
    EXPECT_EQ(h.tpsTlb(), nullptr);
    EXPECT_EQ(h.coltTlb(), nullptr);
    EXPECT_EQ(h.rangeTlb(), nullptr);
    EXPECT_NE(h.stlb(), nullptr);
}

TEST(Hierarchy, TpsStructures)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Tps;
    TlbHierarchy h(cfg);
    EXPECT_NE(h.l1Small(), nullptr);
    EXPECT_NE(h.tpsTlb(), nullptr);
    EXPECT_EQ(h.tpsTlb()->capacity(), 32u);
    // The TPS TLB replaces the split large-page L1s.
    EXPECT_EQ(h.l1Large(), nullptr);
    EXPECT_EQ(h.l1Huge(), nullptr);
}

TEST(Hierarchy, RmmAndColtStructures)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Rmm;
    TlbHierarchy rmm(cfg);
    EXPECT_NE(rmm.rangeTlb(), nullptr);

    cfg.design = TlbDesign::Colt;
    TlbHierarchy colt(cfg);
    EXPECT_NE(colt.coltTlb(), nullptr);
    EXPECT_EQ(colt.l1Small(), nullptr);
}

TEST(Hierarchy, MissThenFillThenL1Hit)
{
    TlbHierarchy h(TlbHierarchyConfig{});
    auto miss = h.lookup(0x5000);
    EXPECT_EQ(miss.level, TlbHitLevel::Miss);
    h.fill(0x5000, makeEntry(0x5000, 0x55, 12));
    auto hit = h.lookup(0x5123);
    EXPECT_EQ(hit.level, TlbHitLevel::L1);
    EXPECT_EQ(hit.paddr, (0x55ull << 12) + 0x123);
    EXPECT_EQ(hit.entry, h.l1Small()->probe(0x5000));
}

TEST(Hierarchy, L2HitRefillsL1)
{
    TlbHierarchyConfig cfg;
    cfg.l1SmallEntries = 4;
    cfg.l1SmallWays = 4;
    TlbHierarchy h(cfg);
    // Fill 5 pages: one falls out of the 4-entry L1 but stays in STLB.
    for (int i = 0; i < 5; ++i)
        h.fill(0x10000 + i * 0x1000ull,
               makeEntry(0x10000 + i * 0x1000ull,
                         static_cast<Pfn>(i + 1), 12));
    auto res = h.lookup(0x10000);
    EXPECT_EQ(res.level, TlbHitLevel::L2);
    // Now resident in L1 again.
    auto again = h.lookup(0x10000);
    EXPECT_EQ(again.level, TlbHitLevel::L1);
}

TEST(Hierarchy, SizeRoutingBaseline)
{
    TlbHierarchy h(TlbHierarchyConfig{});
    h.fill(0x200000, makeEntry(0x200000, 0x200, 21));
    h.fill(0x40000000, makeEntry(0x40000000, 0x40000, 30));
    EXPECT_EQ(h.l1Large()->occupancy(), 1u);
    EXPECT_EQ(h.l1Huge()->occupancy(), 1u);
    EXPECT_EQ(h.lookup(0x212345).level, TlbHitLevel::L1);
    EXPECT_EQ(h.lookup(0x40123456).level, TlbHitLevel::L1);
}

TEST(Hierarchy, SizeRoutingTps)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Tps;
    TlbHierarchy h(cfg);
    h.fill(0x1000, makeEntry(0x1000, 0x1, 12));
    h.fill(0x100000, makeEntry(0x100000, 0x100, 15));
    h.fill(0x200000, makeEntry(0x200000, 0x200, 21));
    EXPECT_EQ(h.l1Small()->occupancy(), 1u);
    EXPECT_EQ(h.tpsTlb()->occupancy(), 2u);
    EXPECT_EQ(h.lookup(0x104000).level, TlbHitLevel::L1);
}

TEST(Hierarchy, RangeTlbProvidesL2Hit)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Rmm;
    TlbHierarchy h(cfg);
    RangeEntry r;
    r.valid = true;
    r.baseVpn = 0x100;
    r.limitVpn = 0x1ff;
    r.offset = 0x1000;
    r.writable = true;
    h.rangeTlb()->fill(r);

    // A range hit is still an L1 miss (the paper's RMM point): the
    // page is absent from L1 until the hit installs it.
    EXPECT_EQ(h.l1Small()->probe(0x150ull << 12), nullptr);
    auto res = h.lookup(0x150ull << 12);
    EXPECT_EQ(res.level, TlbHitLevel::L2);
    EXPECT_TRUE(res.fromRange);
    EXPECT_EQ(res.paddr, (0x150ull + 0x1000) << 12);
    // The constructed base page is now in L1.
    EXPECT_EQ(res.entry, h.l1Small()->probe(0x150ull << 12));
    EXPECT_EQ(h.lookup(0x150ull << 12).level, TlbHitLevel::L1);
}

TEST(Hierarchy, ShootdownRemovesEverywhere)
{
    TlbHierarchy h(TlbHierarchyConfig{});
    h.fill(0x5000, makeEntry(0x5000, 0x55, 12));
    EXPECT_EQ(h.lookup(0x5000).level, TlbHitLevel::L1);
    h.shootdown(0x5000);
    EXPECT_EQ(h.lookup(0x5000).level, TlbHitLevel::Miss);
}

TEST(Hierarchy, FlushAll)
{
    TlbHierarchy h(TlbHierarchyConfig{});
    h.fill(0x5000, makeEntry(0x5000, 0x55, 12));
    h.fill(0x200000, makeEntry(0x200000, 0x200, 21));
    h.flushAll();
    EXPECT_EQ(h.lookup(0x5000).level, TlbHitLevel::Miss);
    EXPECT_EQ(h.lookup(0x200000).level, TlbHitLevel::Miss);
}

TEST(Hierarchy, ColtFillAndHit)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Colt;
    TlbHierarchy h(cfg);
    ColtEntry ce;
    ce.valid = true;
    ce.startVpn = 0x100;
    ce.length = 8;
    ce.startPfn = 0x500;
    h.coltTlb()->fill(ce);
    auto res = h.lookup(0x105ull << 12);
    EXPECT_EQ(res.level, TlbHitLevel::L1);
    EXPECT_TRUE(res.fromColt);
    EXPECT_EQ(res.paddr, 0x505ull << 12);
}

TEST(Hierarchy, HugePagesUseHugeStlb)
{
    TlbHierarchyConfig cfg;
    cfg.l1HugeEntries = 1;
    TlbHierarchy h(cfg);
    h.fill(0x40000000, makeEntry(0x40000000, 0x40000, 30));
    h.fill(0x80000000, makeEntry(0x80000000, 0x80000, 30));
    // First 1 GB page fell out of the 1-entry L1 but hits the huge STLB.
    auto res = h.lookup(0x40000123);
    EXPECT_EQ(res.level, TlbHitLevel::L2);
}

} // namespace
} // namespace tps::tlb

namespace tps::tlb {
namespace {

TEST(HierarchyExtra, StlbWinsOverRangeTlbWhenBothHit)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Rmm;
    TlbHierarchy h(cfg);
    // Install both an STLB entry and a covering range with a
    // *different* offset; the STLB (the PTE path) must win.
    h.stlb()->fill(makeEntry(0x150000, 0x999, 12));
    // Evict it from L1 so the next lookup reaches L2 -- simplest is a
    // fresh hierarchy state: shootdown only the L1 copy by flushing
    // the small L1.
    h.l1Small()->flush();
    RangeEntry r;
    r.valid = true;
    r.baseVpn = 0x100;
    r.limitVpn = 0x1ff;
    r.offset = 0x1000;
    h.rangeTlb()->fill(r);
    auto res = h.lookup(0x150000);
    EXPECT_EQ(res.level, TlbHitLevel::L2);
    EXPECT_FALSE(res.fromRange);
    EXPECT_EQ(res.paddr, 0x999ull << 12);
}

TEST(HierarchyExtra, FillRoutesTailoredSizesToStlbInTpsDesign)
{
    TlbHierarchyConfig cfg;
    cfg.design = TlbDesign::Tps;
    cfg.tpsTlbEntries = 1;   // tiny: the second fill evicts the first
    TlbHierarchy h(cfg);
    h.fill(0x100000, makeEntry(0x100000, 0x100, 15));
    h.fill(0x800000, makeEntry(0x800000, 0x800, 15));
    // First page fell out of the 1-entry TPS TLB but the multi-size
    // STLB still holds it.
    auto res = h.lookup(0x100000 + 0x2000);
    EXPECT_EQ(res.level, TlbHitLevel::L2);
}

TEST(HierarchyExtra, StatsDistinguishMissKinds)
{
    TlbHierarchy h(TlbHierarchyConfig{});
    auto miss = h.lookup(0xdead000);   // full miss
    EXPECT_EQ(miss.level, TlbHitLevel::Miss);
    EXPECT_EQ(miss.entry, nullptr);
    EXPECT_FALSE(miss.fromRange);
    h.fill(0x1000, makeEntry(0x1000, 0x1, 12));
    auto hit = h.lookup(0x1000);       // L1 hit
    EXPECT_EQ(hit.level, TlbHitLevel::L1);
    EXPECT_FALSE(hit.fromRange);
    // A full miss installs nothing anywhere.
    EXPECT_EQ(h.lookup(0xdead000).level, TlbHitLevel::Miss);
}

} // namespace
} // namespace tps::tlb
