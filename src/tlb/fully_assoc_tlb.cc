#include "tlb/fully_assoc_tlb.hh"

#include "util/logging.hh"

namespace tps::tlb {

FullyAssocTlb::FullyAssocTlb(unsigned entries)
{
    tps_assert(entries > 0);
    entries_.resize(entries);
    masks_.assign(entries, 0);
    tags_.assign(entries, kInvalidTag);
    lastUses_.assign(entries, 0);
}

const TlbEntry *
FullyAssocTlb::probe(Vaddr va) const
{
    Vpn vpn = vm::vpnOf(va);
    for (const auto &e : entries_)
        if (e.matches(vpn))
            return &e;
    return nullptr;
}

TlbEntry *
FullyAssocTlb::fill(const TlbEntry &entry)
{
    tps_assert(entry.valid);
    ++tick_;

    // One pass over the packed shadows finds a duplicate (refill in
    // place) and the victim.  A tag match is necessary but not
    // sufficient for a duplicate (aligned pages of different sizes can
    // share a tag), so candidates confirm pageBits in the entry.
    // Invalid slots carry stamp 0, below every valid stamp, so the
    // first minimum over lastUses_ is the first invalid slot when one
    // exists and the first least-recently-used slot otherwise -- the
    // same choice the separate scans made.
    size_t n = tags_.size();
    size_t vi = 0;
    uint64_t best = lastUses_[0];
    for (size_t i = 0; i < n; ++i) {
        if (tags_[i] == entry.vpnTag &&
            entries_[i].pageBits == entry.pageBits) {
            entries_[i] = entry;
            syncSlot(i, tick_);
            return &entries_[i];
        }
        bool older = lastUses_[i] < best;
        vi = older ? i : vi;
        best = older ? lastUses_[i] : best;
    }
    entries_[vi] = entry;
    syncSlot(vi, tick_);
    return &entries_[vi];
}

TlbEntry *
FullyAssocTlb::fillAndFind(const TlbEntry &entry, Vaddr base)
{
    tps_assert(entry.valid);
    ++tick_;

    // The fill pass from fill() above, extended to also record the
    // first probe-order slot covering @p base -- fusing the
    // findMutable() scan installL1 would otherwise run right after.
    Vpn vpn = vm::vpnOf(base);
    size_t n = tags_.size();
    size_t vi = 0;
    uint64_t best = lastUses_[0];
    size_t match = n;
    for (size_t i = 0; i < n; ++i) {
        if (match == n && (vpn & ~masks_[i]) == tags_[i])
            match = i;
        if (tags_[i] == entry.vpnTag &&
            entries_[i].pageBits == entry.pageBits) {
            // Refill in place.  The slot's (mask, tag) identity is
            // unchanged, and the new entry covers base, so the probe
            // predicate holds here -- match is already <= i and final.
            entries_[i] = entry;
            syncSlot(i, tick_);
            return &entries_[match];
        }
        bool older = lastUses_[i] < best;
        vi = older ? i : vi;
        best = older ? lastUses_[i] : best;
    }
    entries_[vi] = entry;
    syncSlot(vi, tick_);
    // Post-install, every slot except the victim kept its pre-scan
    // predicate value and the victim always matches (the new entry
    // covers base), so the first probe-order match is min(match, vi) --
    // a pre-scan match at the victim slot was overwritten, and
    // min(vi, vi) still lands on the (now refilled) victim.
    return &entries_[match < vi ? match : vi];
}

void
FullyAssocTlb::invalidate(Vaddr va)
{
    Vpn vpn = vm::vpnOf(va);
    for (size_t i = 0; i < entries_.size(); ++i) {
        TlbEntry &e = entries_[i];
        if (e.matches(vpn)) {
            e.valid = false;
            syncSlot(i, 0);
        }
    }
}

void
FullyAssocTlb::flush()
{
    for (size_t i = 0; i < entries_.size(); ++i) {
        entries_[i].valid = false;
        syncSlot(i, 0);
    }
}

unsigned
FullyAssocTlb::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace tps::tlb
