#include "tlb/set_assoc_tlb.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tps::tlb {

SetAssocTlb::SetAssocTlb(unsigned entries, unsigned ways,
                         std::vector<unsigned> page_bits_list)
    : ways_(ways),
      pageBitsList_(std::move(page_bits_list)),
      livePerSize_(vm::kMaxPageBits + 1, 0)
{
    tps_assert(ways_ > 0 && entries > 0);
    tps_assert(entries % ways_ == 0);
    sets_ = entries / ways_;
    tps_assert(isPowerOfTwo(sets_));
    tps_assert(!pageBitsList_.empty());
    std::sort(pageBitsList_.begin(), pageBitsList_.end());
    entries_.resize(entries);
    keys_.assign(entries, kInvalidKey);
    lastUses_.assign(entries, 0);
    for (unsigned pb : pageBitsList_) {
        tps_assert(pb >= vm::kBasePageBits &&
                   pb - vm::kBasePageBits < 32);
        supportMask_ |= 1u << (pb - vm::kBasePageBits);
    }
}

bool
SetAssocTlb::supports(unsigned page_bits) const
{
    unsigned shift = page_bits - vm::kBasePageBits;
    return page_bits >= vm::kBasePageBits && shift < 32 &&
           ((supportMask_ >> shift) & 1u) != 0;
}

const TlbEntry *
SetAssocTlb::probe(Vaddr va) const
{
    Vpn vpn = vm::vpnOf(va);
    for (unsigned pb : pageBitsList_) {
        if (livePerSize_[pb] == 0)
            continue;
        unsigned set = setIndex(va, pb);
        const TlbEntry *base = &entries_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            const TlbEntry &e = base[w];
            if (e.valid && e.pageBits == pb && e.matches(vpn))
                return &e;
        }
    }
    return nullptr;
}

TlbEntry *
SetAssocTlb::fill(const TlbEntry &entry)
{
    tps_assert(entry.valid);
    tps_assert(supports(entry.pageBits));
    ++tick_;
    unsigned set = setIndex(entry.pageBase(), entry.pageBits);
    size_t slot0 = static_cast<size_t>(set) * ways_;

    // One pass over the packed shadows finds a duplicate (refill in
    // place; its identity is exactly key equality) and the victim.
    // Invalid slots carry stamp 0, below every valid stamp, so the
    // first minimum over lastUses_ is the first invalid way when one
    // exists and the first least-recently-used way otherwise -- the
    // same choice the separate scans made.
    uint64_t needle = keyOf(entry.pageBits, entry.vpnTag);
    size_t vi = slot0;
    uint64_t best = lastUses_[slot0];
    for (unsigned w = 0; w < ways_; ++w) {
        size_t i = slot0 + w;
        if (keys_[i] == needle) {
            entries_[i] = entry;
            syncKey(i, tick_);
            return &entries_[i];
        }
        bool older = lastUses_[i] < best;
        vi = older ? i : vi;
        best = older ? lastUses_[i] : best;
    }
    TlbEntry *victim = &entries_[vi];
    if (victim->valid &&
        --livePerSize_[victim->pageBits] == 0)
        liveMask_ &= ~(1u << (victim->pageBits - vm::kBasePageBits));
    *victim = entry;
    syncKey(vi, tick_);
    ++livePerSize_[entry.pageBits];
    liveMask_ |= 1u << (entry.pageBits - vm::kBasePageBits);
    return victim;
}

void
SetAssocTlb::invalidate(Vaddr va)
{
    Vpn vpn = vm::vpnOf(va);
    for (unsigned pb : pageBitsList_) {
        if (livePerSize_[pb] == 0)
            continue;
        TlbEntry *e = findInSet(setIndex(va, pb), vpn, pb);
        if (e) {
            e->valid = false;
            syncKey(static_cast<size_t>(e - entries_.data()), 0);
            if (--livePerSize_[pb] == 0)
                liveMask_ &= ~(1u << (pb - vm::kBasePageBits));
        }
    }
}

void
SetAssocTlb::flush()
{
    for (auto &e : entries_)
        e.valid = false;
    std::fill(keys_.begin(), keys_.end(), kInvalidKey);
    std::fill(lastUses_.begin(), lastUses_.end(), 0);
    std::fill(livePerSize_.begin(), livePerSize_.end(), 0);
    liveMask_ = 0;
}

unsigned
SetAssocTlb::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace tps::tlb
