/**
 * @file
 * The TLB structures' replacement order, pinned across builds.  A
 * seeded stream of fills, lookups, probes, invalidations and flushes is
 * driven through each TLB class, and a stable hash of every result --
 * the entry each lookup, probe and fill returned, plus the resident
 * entries in slot order at regular checkpoints -- must match the value
 * recorded when the stream was written.  Any change to victim choice,
 * LRU stamping or probe order moves the hash.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "tlb/colt_tlb.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/skewed_assoc_tlb.hh"
#include "util/rng.hh"

namespace tps::tlb {
namespace {

constexpr int kOps = 40000;
constexpr int kCheckpointEvery = 1024;
constexpr int kFlushEvery = 15000;

/** Appends every observed result to a byte string for hashing. */
class Recorder
{
  public:
    void
    u64(uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            bytes_.push_back(static_cast<char>(v >> (8 * b)));
    }

    void
    entry(const TlbEntry *e)
    {
        if (!e) {
            bytes_.push_back('-');
            return;
        }
        bytes_.push_back('E');
        u64(e->valid);
        u64(e->vpnTag);
        u64(e->vpnMask);
        u64(e->pfn);
        u64(e->pageBits);
        u64(e->writable | e->user << 1 | e->noExecute << 2 |
            e->accessed << 3 | e->dirty << 4);
        u64(e->truePtePaddr);
    }

    void
    run(const ColtEntry *e)
    {
        if (!e) {
            bytes_.push_back('-');
            return;
        }
        bytes_.push_back('C');
        u64(e->startVpn);
        u64(e->length);
        u64(e->startPfn);
        u64(e->writable | e->user << 1);
    }

    void
    range(const RangeEntry *e)
    {
        if (!e) {
            bytes_.push_back('-');
            return;
        }
        bytes_.push_back('R');
        u64(e->baseVpn);
        u64(e->limitVpn);
        u64(static_cast<uint64_t>(e->offset));
        u64(e->writable | e->user << 1);
    }

    uint64_t hash() const { return stableHash64(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Draws page sizes and addresses so that fills conflict in sets and
 * pages of different sizes overlap: each size has @p pages candidate
 * pages starting at VA 0.
 */
class AddrGen
{
  public:
    AddrGen(uint64_t seed, std::vector<unsigned> sizes, uint32_t pages)
        : rng_(seed), sizes_(std::move(sizes)), pages_(pages)
    {}

    Pcg32 &rng() { return rng_; }

    unsigned
    size()
    {
        return sizes_[rng_.below(static_cast<uint32_t>(sizes_.size()))];
    }

    /** Base of a candidate page of 2^@p page_bits. */
    Vaddr page(unsigned page_bits)
    {
        return static_cast<Vaddr>(rng_.below(pages_)) << page_bits;
    }

    /** An address inside a candidate page of a random size. */
    Vaddr
    addr()
    {
        unsigned pb = size();
        return page(pb) + rng_.below64(1ull << pb);
    }

    /** A leaf entry for a random candidate page. */
    TlbEntry
    entry()
    {
        unsigned pb = size();
        Vaddr va = page(pb);
        vm::LeafInfo leaf;
        // Aligned frame derived from the page, so a refill of the same
        // page carries the same frame unless the flags differ.
        leaf.pfn = ((va >> pb) * 7 + pb) << (pb - vm::kBasePageBits);
        leaf.pageBits = pb;
        leaf.writable = rng_.chance(0.5);
        leaf.user = true;
        leaf.accessed = rng_.chance(0.5);
        leaf.dirty = leaf.accessed && rng_.chance(0.5);
        return TlbEntry::fromLeaf(va, leaf, va >> 9);
    }

  private:
    Pcg32 rng_;
    std::vector<unsigned> sizes_;
    uint32_t pages_;
};

/** Resident TLB entries in slot order. */
template <typename Tlb>
void
recordResident(Recorder &rec, const Tlb &tlb)
{
    rec.u64(tlb.occupancy());
    tlb.forEachEntry([&](const TlbEntry &e) { rec.entry(&e); });
}

/**
 * The page-granular stream shared by the set-associative, fully
 * associative and skewed TLBs.  Half the fills of an any-size structure
 * go through its fused fill + probe.
 */
template <typename Tlb>
uint64_t
pageStreamHash(Tlb &tlb, AddrGen gen)
{
    Recorder rec;
    Pcg32 &rng = gen.rng();
    for (int op = 1; op <= kOps; ++op) {
        uint32_t kind = rng.below(100);
        if (kind < 45) {
            rec.entry(tlb.lookup(gen.addr()));
        } else if (kind < 80) {
            TlbEntry e = gen.entry();
            const TlbEntry *slot;
            if constexpr (std::is_base_of_v<AnySizeTlb, Tlb>)
                slot = rng.chance(0.5) ? tlb.fillAndFind(e, e.pageBase())
                                       : tlb.fill(e);
            else
                slot = tlb.fill(e);
            rec.entry(slot);
        } else if (kind < 95) {
            rec.entry(tlb.probe(gen.addr()));
        } else {
            tlb.invalidate(gen.addr());
        }
        if (op % kFlushEvery == 0)
            tlb.flush();
        if (op % kCheckpointEvery == 0)
            recordResident(rec, tlb);
    }
    recordResident(rec, tlb);
    return rec.hash();
}

std::vector<unsigned>
stlbSizes()
{
    return {12, 12, 12, 13, 14, 15, 16, 18, 21, 25, 30};
}

std::vector<unsigned>
anySizeL1Sizes()
{
    return {12, 12, 13, 14, 16, 18, 21, 21, 30};
}

TEST(TlbReplacement, SetAssocMultiSizeStlbPinned)
{
    // The TPS STLB: 1536 entries, 12 ways, every page size.
    std::vector<unsigned> all;
    for (unsigned pb = vm::kBasePageBits; pb <= vm::kMaxPageBits; ++pb)
        all.push_back(pb);
    SetAssocTlb tlb(1536, 12, all);
    uint64_t h = pageStreamHash(tlb, AddrGen(1, stlbSizes(), 4096));
    EXPECT_EQ(h, 0x3a50b23158668308ull) << std::hex << h;
}

TEST(TlbReplacement, SetAssocL1SmallPinned)
{
    SetAssocTlb tlb(64, 4, {vm::kPageBits4K});
    uint64_t h = pageStreamHash(tlb, AddrGen(2, {12}, 512));
    EXPECT_EQ(h, 0xbfb8abf42904b74aull) << std::hex << h;
}

TEST(TlbReplacement, FullyAssocPinned)
{
    FullyAssocTlb tlb(32);
    uint64_t h = pageStreamHash(tlb, AddrGen(3, anySizeL1Sizes(), 64));
    EXPECT_EQ(h, 0x10ffd04eefc45901ull) << std::hex << h;
}

TEST(TlbReplacement, SkewedAssocPinned)
{
    SkewedAssocTlb tlb(32, 4);
    uint64_t h = pageStreamHash(tlb, AddrGen(4, anySizeL1Sizes(), 64));
    EXPECT_EQ(h, 0x999f901fb22954f1ull) << std::hex << h;
}

TEST(TlbReplacement, ColtPinned)
{
    ColtTlb tlb(64, 4);
    Pcg32 rng(5);
    constexpr uint32_t kPages = 2048;
    Recorder rec;
    auto record_runs = [&] {
        rec.u64(tlb.occupancy());
        tlb.forEachRun([&](const ColtEntry &e) { rec.run(&e); });
    };
    for (int op = 1; op <= kOps; ++op) {
        uint32_t kind = rng.below(100);
        Vaddr va = static_cast<Vaddr>(rng.below(kPages))
                   << vm::kBasePageBits;
        if (kind < 45) {
            rec.run(tlb.lookup(va));
        } else if (kind < 80) {
            ColtEntry e;
            e.valid = true;
            e.startVpn = vm::vpnOf(va);
            unsigned room = ColtTlb::kClusterPages -
                            e.startVpn % ColtTlb::kClusterPages;
            e.length = 1 + rng.below(room);
            e.startPfn = e.startVpn * 3;
            e.writable = rng.chance(0.5);
            e.user = true;
            tlb.fill(e);
        } else if (kind < 95) {
            rec.run(tlb.probe(va));
        } else {
            tlb.invalidate(va);
        }
        if (op % kFlushEvery == 0)
            tlb.flush();
        if (op % kCheckpointEvery == 0)
            record_runs();
    }
    record_runs();
    uint64_t h = rec.hash();
    EXPECT_EQ(h, 0x863504cac02a4752ull) << std::hex << h;
}

TEST(TlbReplacement, RangePinned)
{
    RangeTlb tlb(32);
    Pcg32 rng(6);
    // Range bases on a 256-page grid, so refills of one base recur and
    // neighbouring ranges may overlap.
    constexpr uint32_t kBases = 96;
    constexpr uint64_t kGrid = 256;
    Recorder rec;
    auto record_ranges = [&] {
        rec.u64(tlb.occupancy());
        tlb.forEachRange([&](const RangeEntry &e) { rec.range(&e); });
    };
    for (int op = 1; op <= kOps; ++op) {
        uint32_t kind = rng.below(100);
        Vaddr va = rng.below64(kBases * kGrid) << vm::kBasePageBits;
        if (kind < 45) {
            rec.range(tlb.lookup(va));
        } else if (kind < 80) {
            RangeEntry e;
            e.valid = true;
            e.baseVpn = rng.below(kBases) * kGrid;
            e.limitVpn = e.baseVpn + rng.below(2 * kGrid);
            e.offset = static_cast<int64_t>(rng.below(1u << 20)) -
                       (1 << 19);
            e.writable = rng.chance(0.5);
            e.user = true;
            tlb.fill(e);
        } else if (kind < 95) {
            rec.range(tlb.probe(va));
        } else {
            tlb.invalidate(va);
        }
        if (op % kFlushEvery == 0)
            tlb.flush();
        if (op % kCheckpointEvery == 0)
            record_ranges();
    }
    record_ranges();
    uint64_t h = rec.hash();
    EXPECT_EQ(h, 0xdea3faf8a3e5bfe9ull) << std::hex << h;
}

} // namespace
} // namespace tps::tlb
