/**
 * @file
 * Second property-test batch: randomized cross-checks of the Fenwick
 * bit counter against std::bitset, buddy targeted allocation under
 * random carving, NAPOT round-trip fuzzing, TLB probe/lookup agreement,
 * fragmenter coverage monotonicity, and trace re-setup reuse.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <cstdio>

#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/reservation.hh"
#include "sim/trace.hh"
#include "temp_path.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/skewed_assoc_tlb.hh"
#include "util/rng.hh"
#include "vm/pte.hh"
#include "workloads/gups.hh"

namespace tps {
namespace {

TEST(Property, BitCounterMatchesBitset)
{
    constexpr size_t kBits = 2048;
    os::BitCounter bc(kBits);
    std::bitset<kBits> ref;
    Pcg32 rng(0xB17);
    for (int i = 0; i < 5000; ++i) {
        uint64_t idx = rng.below(kBits);
        if (rng.chance(0.7)) {
            bc.set(idx);
            ref.set(idx);
        } else {
            uint64_t first = rng.below(kBits);
            uint64_t count = rng.below(
                static_cast<uint32_t>(kBits - first) + 1);
            uint64_t expect = 0;
            for (uint64_t b = first; b < first + count; ++b)
                expect += ref.test(b);
            ASSERT_EQ(bc.countRange(first, count), expect)
                << first << "+" << count;
        }
    }
    EXPECT_EQ(bc.count(), ref.count());
}

TEST(Property, BuddyRandomCarveAndRestore)
{
    os::BuddyAllocator buddy(1 << 12);
    Pcg32 rng(0xCA57);
    std::vector<std::pair<os::Pfn, unsigned>> held;
    // Randomly mix plain allocs, targeted allocs and frees.
    for (int i = 0; i < 3000; ++i) {
        double dice = rng.uniform();
        if (dice < 0.4) {
            unsigned order = rng.below(5);
            auto pfn = buddy.alloc(order);
            if (pfn)
                held.push_back({*pfn, order});
        } else if (dice < 0.7) {
            unsigned order = rng.below(4);
            os::Pfn target =
                alignDown(rng.below64(1 << 12), 1ull << order);
            if (buddy.allocSpecific(target, order))
                held.push_back({target, order});
        } else if (!held.empty()) {
            size_t idx = rng.below(static_cast<uint32_t>(held.size()));
            buddy.free(held[idx].first, held[idx].second);
            held[idx] = held.back();
            held.pop_back();
        }
        uint64_t held_frames = 0;
        for (auto &[p, o] : held)
            held_frames += 1ull << o;
        ASSERT_EQ(buddy.freeFrames() + held_frames,
                  buddy.totalFrames());
    }
    for (auto &[p, o] : held)
        buddy.free(p, o);
    EXPECT_EQ(buddy.freeListCounts()[12], 1u);
}

TEST(Property, NapotFuzzRoundTrip)
{
    Pcg32 rng(0x9A907);
    for (int i = 0; i < 20000; ++i) {
        unsigned page_bits =
            13 + rng.below(vm::kMaxPageBits - 13 + 1);
        unsigned k = page_bits - vm::kBasePageBits;
        vm::Pfn pfn =
            (rng.next64() & lowMask(vm::Pte::kPfnBits - k)) << k;
        vm::Pfn coded = vm::napotEncode(pfn, page_bits);
        unsigned decoded_bits = 0;
        vm::Pfn decoded = vm::napotDecode(coded, decoded_bits);
        ASSERT_EQ(decoded_bits, page_bits);
        ASSERT_EQ(decoded, pfn);
    }
}

TEST(Property, FullyAssocAndSkewedAgreeOnResidentEntries)
{
    // Whatever the skewed TLB holds must translate identically to the
    // fully associative reference (contents may differ; values not).
    tlb::FullyAssocTlb fa(64);
    tlb::SkewedAssocTlb sk(64, 4);
    Pcg32 rng(0x7EE);
    for (int i = 0; i < 2000; ++i) {
        unsigned pb = 12 + rng.below(10);
        vm::Vaddr base = (1ull << 33) +
                         (rng.below64(1 << 14) << pb);
        vm::LeafInfo leaf;
        leaf.pfn = (base >> 12) + 7;
        leaf.pageBits = pb;
        leaf.writable = true;
        leaf.user = true;
        tlb::TlbEntry e = tlb::TlbEntry::fromLeaf(base, leaf, 0);
        fa.fill(e);
        sk.fill(e);

        vm::Vaddr probe = base + rng.below64(1ull << pb);
        const tlb::TlbEntry *hs = sk.probe(probe);
        if (hs) {
            ASSERT_EQ(hs->translate(probe),
                      (leaf.pfn << 12) + vm::pageOffset(probe, pb));
        }
    }
}

TEST(Property, SetAssocProbeAgreesWithLookup)
{
    tlb::SetAssocTlb tlb(64, 4, {12, 21});
    Pcg32 rng(0x5E7);
    for (int i = 0; i < 3000; ++i) {
        unsigned pb = rng.chance(0.8) ? 12 : 21;
        vm::Vaddr base = rng.below64(1 << 10) << pb;
        if (rng.chance(0.6)) {
            vm::LeafInfo leaf;
            leaf.pfn = (base >> 12) + 1;
            leaf.pageBits = pb;
            tlb.fill(tlb::TlbEntry::fromLeaf(base, leaf, 0));
        }
        const tlb::TlbEntry *p = tlb.probe(base);
        tlb::TlbEntry *l = tlb.lookup(base);
        ASSERT_EQ(p != nullptr, l != nullptr);
        if (p) {
            ASSERT_EQ(p->pfn, l->pfn);
        }
    }
}

TEST(Property, FragmenterCoverageMonotoneInOrder)
{
    os::PhysMemory pm(256ull << 20);
    os::Fragmenter frag(pm, os::FragmenterConfig{});
    frag.run();
    double prev = 1.0 + 1e-12;
    for (unsigned o = 0; o <= os::BuddyAllocator::kMaxOrder; ++o) {
        double c = pm.buddy().coverageAt(o);
        ASSERT_LE(c, prev + 1e-12) << o;
        ASSERT_GE(c, 0.0);
        prev = c;
    }
}

TEST(Property, TraceSetupIsRepeatable)
{
    workloads::GupsConfig cfg;
    cfg.tableBytes = 2ull << 20;
    cfg.updates = 500;
    std::string path = test::tempPath("resetup.trace");
    {
        workloads::Gups gups(cfg);
        sim::recordTrace(gups, path);
    }
    sim::TraceWorkload replay(path);
    struct BumpAlloc : sim::AllocApi
    {
        vm::Vaddr cursor = 1ull << 40;
        vm::Vaddr
        mmap(uint64_t bytes) override
        {
            vm::Vaddr r = cursor;
            cursor += alignUp(bytes, 1ull << 30);
            return r;
        }
        void munmap(vm::Vaddr) override {}
    };

    auto drain = [&] {
        BumpAlloc alloc;
        replay.setup(alloc);
        sim::MemAccess acc;
        uint64_t first_va = 0, n = 0;
        while (replay.next(acc)) {
            if (n == 0)
                first_va = acc.va;
            ++n;
        }
        return std::make_pair(first_va, n);
    };
    auto [va1, n1] = drain();
    auto [va2, n2] = drain();   // second replay of the same object
    EXPECT_EQ(va1, va2);
    EXPECT_EQ(n1, n2);
    EXPECT_GT(n1, 1000u);
    std::remove(path.c_str());
}

TEST(Property, ZipfMeanDecreasesWithTheta)
{
    double prev_mean = 1e18;
    for (double theta : {0.0, 0.5, 0.9, 1.2}) {
        Pcg32 r(0x217F);
        ZipfSampler z(100000, theta);
        double sum = 0;
        for (int i = 0; i < 20000; ++i)
            sum += static_cast<double>(z.sample(r));
        double mean = sum / 20000;
        EXPECT_LT(mean, prev_mean) << theta;
        prev_mean = mean;
    }
}

} // namespace
} // namespace tps
