#include "tlb/skewed_assoc_tlb.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tps::tlb {

SkewedAssocTlb::SkewedAssocTlb(unsigned entries, unsigned ways)
    : ways_(ways), livePerSize_(vm::kMaxPageBits + 1, 0)
{
    tps_assert(ways_ > 0 && entries > 0 && entries % ways_ == 0);
    sets_ = entries / ways_;
    tps_assert(isPowerOfTwo(sets_));
    entries_.resize(entries);
    lastUses_.assign(entries, 0);
}

const TlbEntry *
SkewedAssocTlb::probe(Vaddr va) const
{
    Vpn vpn = vm::vpnOf(va);
    for (unsigned pb = vm::kBasePageBits; pb <= vm::kMaxPageBits;
         ++pb) {
        if (livePerSize_[pb] == 0)
            continue;
        for (unsigned w = 0; w < ways_; ++w) {
            const TlbEntry &e = entries_[slotIndex(w, indexOf(w, va, pb))];
            if (e.valid && e.pageBits == pb && e.matches(vpn))
                return &e;
        }
    }
    return nullptr;
}

TlbEntry *
SkewedAssocTlb::findMutable(Vaddr va)
{
    return const_cast<TlbEntry *>(
        static_cast<const SkewedAssocTlb *>(this)->probe(va));
}

TlbEntry *
SkewedAssocTlb::fill(const TlbEntry &entry)
{
    tps_assert(entry.valid);
    ++tick_;
    Vaddr base = entry.pageBase();

    // Refill over a duplicate if resident.
    for (unsigned w = 0; w < ways_; ++w) {
        size_t i = slotIndex(w, indexOf(w, base, entry.pageBits));
        TlbEntry &e = entries_[i];
        if (e.valid && e.pageBits == entry.pageBits &&
            e.vpnTag == entry.vpnTag) {
            e = entry;
            lastUses_[i] = tick_;
            return &e;
        }
    }

    // One candidate slot per way; prefer an invalid one, else LRU.
    size_t vi = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        size_t i = slotIndex(w, indexOf(w, base, entry.pageBits));
        if (!entries_[i].valid) {
            vi = i;
            break;
        }
        if (w == 0 || lastUses_[i] < lastUses_[vi])
            vi = i;
    }
    TlbEntry &victim = entries_[vi];
    if (victim.valid)
        --livePerSize_[victim.pageBits];
    victim = entry;
    lastUses_[vi] = tick_;
    ++livePerSize_[entry.pageBits];
    return &victim;
}

void
SkewedAssocTlb::invalidate(Vaddr va)
{
    for (unsigned pb = vm::kBasePageBits; pb <= vm::kMaxPageBits;
         ++pb) {
        if (livePerSize_[pb] == 0)
            continue;
        Vpn vpn = vm::vpnOf(va);
        for (unsigned w = 0; w < ways_; ++w) {
            TlbEntry &e = entries_[slotIndex(w, indexOf(w, va, pb))];
            if (e.valid && e.pageBits == pb && e.matches(vpn)) {
                e.valid = false;
                --livePerSize_[pb];
            }
        }
    }
}

void
SkewedAssocTlb::flush()
{
    for (auto &e : entries_)
        e.valid = false;
    std::fill(livePerSize_.begin(), livePerSize_.end(), 0);
}

unsigned
SkewedAssocTlb::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace tps::tlb
