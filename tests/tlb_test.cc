/**
 * @file
 * Tests for the TLB structures: masked any-size matching (paper
 * Fig. 7), set-associative indexing and LRU, the CoLT coalesced TLB,
 * and the RMM range TLB.
 */

#include <gtest/gtest.h>

#include "tlb/colt_tlb.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/skewed_assoc_tlb.hh"

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

TEST(TlbEntry, MaskedMatch4k)
{
    TlbEntry e = makeEntry(0x5000, 0x55, 12);
    EXPECT_TRUE(e.matches(vm::vpnOf(0x5000)));
    EXPECT_TRUE(e.matches(vm::vpnOf(0x5fff)));
    EXPECT_FALSE(e.matches(vm::vpnOf(0x6000)));
}

TEST(TlbEntry, MaskedMatchTailored)
{
    // 64 KB page: one entry covers 16 base pages.
    TlbEntry e = makeEntry(0x100000, 0x100, 16);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_TRUE(e.matches(vm::vpnOf(0x100000 + i * 0x1000ull)));
    EXPECT_FALSE(e.matches(vm::vpnOf(0x100000 + 16 * 0x1000ull)));
    EXPECT_FALSE(e.matches(vm::vpnOf(0x100000 - 1)));
}

TEST(TlbEntry, TranslateComposesOffset)
{
    TlbEntry e = makeEntry(0x100000, 0x100, 16);
    EXPECT_EQ(e.translate(0x100000), 0x100000u);
    EXPECT_EQ(e.translate(0x10abcd), (0x100ull << 12) + 0xabcd);
}

TEST(TlbEntry, PageBase)
{
    TlbEntry e = makeEntry(0x123000, 0x1, 12);
    EXPECT_EQ(e.pageBase(), 0x123000u);
    TlbEntry big = makeEntry(0x140000, 0x140, 18);
    EXPECT_EQ(big.pageBase(), 0x140000u);
}

TEST(FullyAssoc, FillLookupHit)
{
    FullyAssocTlb tlb(4);
    tlb.fill(makeEntry(0x5000, 0x55, 12));
    TlbEntry *e = tlb.lookup(0x5123);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pfn, 0x55u);
    EXPECT_EQ(e, tlb.probe(0x5000));
}

TEST(FullyAssoc, MixedSizesCoexist)
{
    FullyAssocTlb tlb(8);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.fill(makeEntry(0x200000, 0x200, 21));
    tlb.fill(makeEntry(0x40000000, 0x40000, 30));
    tlb.fill(makeEntry(0x100000, 0x100, 15));
    EXPECT_NE(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x200000 + 0x12345), nullptr);
    EXPECT_NE(tlb.lookup(0x40000000 + 0x1234567), nullptr);
    EXPECT_NE(tlb.lookup(0x100000 + 0x4000), nullptr);
}

TEST(FullyAssoc, LruEviction)
{
    FullyAssocTlb tlb(2);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.fill(makeEntry(0x2000, 0x2, 12));
    tlb.lookup(0x1000);   // make 0x2000 the LRU
    tlb.fill(makeEntry(0x3000, 0x3, 12));
    EXPECT_NE(tlb.lookup(0x1000), nullptr);
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
    EXPECT_NE(tlb.lookup(0x3000), nullptr);
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(FullyAssoc, DuplicateFillRefreshes)
{
    FullyAssocTlb tlb(2);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.fill(makeEntry(0x1000, 0x9, 12));
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_EQ(tlb.lookup(0x1000)->pfn, 0x9u);
}

TEST(FullyAssoc, InvalidateByAnyCoveredAddress)
{
    FullyAssocTlb tlb(2);
    tlb.fill(makeEntry(0x100000, 0x100, 16));
    tlb.invalidate(0x100000 + 7 * 0x1000);
    EXPECT_EQ(tlb.lookup(0x100000), nullptr);
}

TEST(FullyAssoc, Flush)
{
    FullyAssocTlb tlb(4);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.fill(makeEntry(0x2000, 0x2, 12));
    tlb.flush();
    EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(SetAssoc, BasicHitMiss)
{
    SetAssocTlb tlb(64, 4, {12});
    tlb.fill(makeEntry(0x5000, 0x55, 12));
    EXPECT_NE(tlb.lookup(0x5fff), nullptr);
    EXPECT_EQ(tlb.lookup(0x6000), nullptr);
    // A miss installs nothing.
    EXPECT_EQ(tlb.probe(0x6000), nullptr);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(SetAssoc, ConflictEvictionWithinSet)
{
    // 4 sets x 2 ways; VPNs congruent mod 4 collide.
    SetAssocTlb tlb(8, 2, {12});
    Vaddr base = 0;
    // Three pages mapping to set 0: evicts the LRU.
    tlb.fill(makeEntry(base + 0 * 4 * 0x1000, 1, 12));
    tlb.fill(makeEntry(base + 1 * 4 * 0x1000, 2, 12));
    tlb.lookup(base);   // protect the first
    tlb.fill(makeEntry(base + 2 * 4 * 0x1000, 3, 12));
    EXPECT_NE(tlb.lookup(base), nullptr);
    EXPECT_EQ(tlb.lookup(base + 1 * 4 * 0x1000), nullptr);
}

TEST(SetAssoc, MultiSizeProbes)
{
    SetAssocTlb tlb(1536, 12, {12, 21});
    tlb.fill(makeEntry(0x5000, 0x5, 12));
    tlb.fill(makeEntry(0x200000, 0x200, 21));
    EXPECT_NE(tlb.lookup(0x5000), nullptr);
    TlbEntry *e = tlb.lookup(0x200000 + 0x54321);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pageBits, 21u);
}

TEST(SetAssoc, SupportsQuery)
{
    SetAssocTlb tlb(64, 4, {12, 21});
    EXPECT_TRUE(tlb.supports(12));
    EXPECT_TRUE(tlb.supports(21));
    EXPECT_FALSE(tlb.supports(13));
}

TEST(SetAssoc, TailoredSizesInMultiSizeStlb)
{
    std::vector<unsigned> sizes;
    for (unsigned pb = 12; pb <= 38; ++pb)
        sizes.push_back(pb);
    SetAssocTlb tlb(1536, 12, sizes);
    tlb.fill(makeEntry(0x100000, 0x100, 15));
    tlb.fill(makeEntry(0x400000, 0x400, 18));
    TlbEntry *a = tlb.lookup(0x100000 + 0x7abc);
    TlbEntry *b = tlb.lookup(0x400000 + 0x3ffff);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->pageBits, 15u);
    EXPECT_EQ(b->pageBits, 18u);
}

TEST(SetAssoc, InvalidateSpecificPage)
{
    SetAssocTlb tlb(64, 4, {12});
    tlb.fill(makeEntry(0x5000, 0x5, 12));
    tlb.fill(makeEntry(0x6000, 0x6, 12));
    tlb.invalidate(0x5000);
    EXPECT_EQ(tlb.probe(0x5000), nullptr);
    EXPECT_NE(tlb.probe(0x6000), nullptr);
}

TEST(SetAssoc, OccupancyAndFlush)
{
    SetAssocTlb tlb(64, 4, {12});
    for (int i = 0; i < 10; ++i)
        tlb.fill(makeEntry(0x10000 + i * 0x1000ull,
                           static_cast<Pfn>(i), 12));
    EXPECT_EQ(tlb.occupancy(), 10u);
    tlb.flush();
    EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(ColtTlb, CoalescedRunCoversPages)
{
    ColtTlb tlb(64, 4);
    ColtEntry e;
    e.valid = true;
    e.startVpn = 0x100;
    e.length = 8;
    e.startPfn = 0x500;
    tlb.fill(e);
    for (unsigned i = 0; i < 8; ++i) {
        ColtEntry *hit = tlb.lookup((0x100 + i) << 12);
        ASSERT_NE(hit, nullptr) << i;
        EXPECT_EQ(ColtTlb::translate((0x100 + i) << 12, *hit),
                  (0x500ull + i) << 12);
    }
    EXPECT_EQ(tlb.lookup(0x108ull << 12), nullptr);
}

TEST(ColtTlb, SubsumedEntryReplaced)
{
    ColtTlb tlb(64, 4);
    ColtEntry small;
    small.valid = true;
    small.startVpn = 0x102;
    small.length = 1;
    small.startPfn = 0x502;
    tlb.fill(small);
    ColtEntry big;
    big.valid = true;
    big.startVpn = 0x100;
    big.length = 8;
    big.startPfn = 0x500;
    tlb.fill(big);
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_DOUBLE_EQ(tlb.coalescingFactor(), 8.0);
}

TEST(ColtTlb, InvalidateByCoveredAddress)
{
    ColtTlb tlb(64, 4);
    ColtEntry e;
    e.valid = true;
    e.startVpn = 0x100;
    e.length = 8;
    e.startPfn = 0x500;
    tlb.fill(e);
    tlb.invalidate(0x104ull << 12);
    EXPECT_EQ(tlb.lookup(0x100ull << 12), nullptr);
}

TEST(RangeTlb, CoversAndTranslates)
{
    RangeTlb tlb(4);
    RangeEntry r;
    r.valid = true;
    r.baseVpn = 0x1000;
    r.limitVpn = 0x1fff;
    r.offset = 0x9000;
    r.writable = true;
    tlb.fill(r);
    RangeEntry *hit = tlb.lookup(0x1234ull << 12);
    ASSERT_NE(hit, nullptr);
    TlbEntry e = RangeTlb::makeBasePageEntry(0x1234ull << 12, *hit);
    EXPECT_EQ(e.pfn, 0x1234ull + 0x9000);
    EXPECT_EQ(e.pageBits, 12u);
    EXPECT_EQ(tlb.lookup(0x2000ull << 12), nullptr);
}

TEST(RangeTlb, LruEviction)
{
    RangeTlb tlb(2);
    for (int i = 0; i < 3; ++i) {
        RangeEntry r;
        r.valid = true;
        r.baseVpn = static_cast<Vpn>(i) * 0x1000;
        r.limitVpn = r.baseVpn + 0xfff;
        r.offset = 0;
        tlb.fill(r);
    }
    EXPECT_EQ(tlb.lookup(0x0), nullptr);        // evicted
    EXPECT_NE(tlb.lookup(0x1000ull << 12), nullptr);
    EXPECT_NE(tlb.lookup(0x2000ull << 12), nullptr);
}

TEST(RangeTlb, NegativeOffsetRanges)
{
    RangeTlb tlb(2);
    RangeEntry r;
    r.valid = true;
    r.baseVpn = 0x10000;
    r.limitVpn = 0x100ff;
    r.offset = -0x8000;
    tlb.fill(r);
    TlbEntry e =
        RangeTlb::makeBasePageEntry(0x10010ull << 12, *tlb.probe(
            0x10010ull << 12));
    EXPECT_EQ(e.pfn, 0x10010ull - 0x8000);
}

} // namespace
} // namespace tps::tlb

namespace tps::tlb {
namespace {

TEST(SkewedAssoc, FillLookupAcrossSizes)
{
    SkewedAssocTlb tlb(32, 4);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.fill(makeEntry(0x200000, 0x200, 21));
    tlb.fill(makeEntry(0x100000, 0x100, 15));
    tlb.fill(makeEntry(0x40000000, 0x40000, 30));
    EXPECT_NE(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x200000 + 0x12345), nullptr);
    EXPECT_NE(tlb.lookup(0x100000 + 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(0x40000000 + 0x999999), nullptr);
    EXPECT_EQ(tlb.lookup(0x9000), nullptr);
    EXPECT_EQ(tlb.occupancy(), 4u);
}

TEST(SkewedAssoc, DuplicateFillRefreshes)
{
    SkewedAssocTlb tlb(32, 4);
    tlb.fill(makeEntry(0x5000, 0x5, 12));
    tlb.fill(makeEntry(0x5000, 0x9, 12));
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_EQ(tlb.lookup(0x5000)->pfn, 0x9u);
}

TEST(SkewedAssoc, InvalidateAndFlush)
{
    SkewedAssocTlb tlb(32, 4);
    tlb.fill(makeEntry(0x100000, 0x100, 15));
    tlb.invalidate(0x100000 + 0x6000);
    EXPECT_EQ(tlb.lookup(0x100000), nullptr);
    tlb.fill(makeEntry(0x1000, 0x1, 12));
    tlb.flush();
    EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(SkewedAssoc, SpreadsConflictingSetAssocIndices)
{
    // Pages whose VPN low bits collide in a conventional set-assoc
    // index mostly land in different slots under the skewed hashes.
    SkewedAssocTlb tlb(32, 4);
    unsigned resident = 0;
    for (int i = 0; i < 8; ++i) {
        // Same low index bits (stride = sets * page).
        tlb.fill(makeEntry(0x1000000ull + i * 0x80000ull,
                           static_cast<Pfn>(i + 1), 12));
    }
    for (int i = 0; i < 8; ++i)
        resident += tlb.lookup(0x1000000ull + i * 0x80000ull) != nullptr;
    EXPECT_GE(resident, 6u);
}

TEST(SkewedAssoc, EvictsWhenCandidatesFull)
{
    SkewedAssocTlb tlb(8, 2);
    for (int i = 0; i < 32; ++i)
        tlb.fill(makeEntry(static_cast<Vaddr>(i) << 12,
                           static_cast<Pfn>(i + 1), 12));
    unsigned resident = 0;
    for (int i = 0; i < 32; ++i)
        resident += tlb.probe(static_cast<Vaddr>(i) << 12) != nullptr;
    // Earlier fills were evicted; the last one is resident.
    EXPECT_LT(resident, 32u);
    EXPECT_EQ(resident, tlb.occupancy());
    EXPECT_LE(tlb.occupancy(), 8u);
    EXPECT_NE(tlb.probe(31ull << 12), nullptr);
}

TEST(SkewedAssoc, ImplementsAnySizeInterface)
{
    std::unique_ptr<AnySizeTlb> tlb =
        std::make_unique<SkewedAssocTlb>(32, 4);
    tlb->fill(makeEntry(0x100000, 0x100, 16));
    EXPECT_NE(tlb->lookup(0x100000 + 0x8000), nullptr);
    EXPECT_EQ(tlb->capacity(), 32u);
}

} // namespace
} // namespace tps::tlb
