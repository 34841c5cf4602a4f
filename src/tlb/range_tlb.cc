#include "tlb/range_tlb.hh"

#include "util/logging.hh"

namespace tps::tlb {

RangeTlb::RangeTlb(unsigned entries)
{
    tps_assert(entries > 0);
    ranges_.resize(entries);
}

RangeEntry *
RangeTlb::lookup(Vaddr va)
{
    ++tick_;
    Vpn vpn = vm::vpnOf(va);
    for (auto &r : ranges_) {
        if (r.covers(vpn)) {
            r.lastUse = tick_;
            return &r;
        }
    }
    return nullptr;
}

const RangeEntry *
RangeTlb::probe(Vaddr va) const
{
    Vpn vpn = vm::vpnOf(va);
    for (const auto &r : ranges_)
        if (r.covers(vpn))
            return &r;
    return nullptr;
}

void
RangeTlb::fill(const RangeEntry &entry)
{
    tps_assert(entry.valid && entry.baseVpn <= entry.limitVpn);
    ++tick_;

    // Refresh an identical or overlapping stale range in place.
    for (auto &r : ranges_) {
        if (r.valid && r.baseVpn == entry.baseVpn) {
            r = entry;
            r.lastUse = tick_;
            return;
        }
    }

    RangeEntry *victim = &ranges_[0];
    for (auto &r : ranges_) {
        if (!r.valid) {
            victim = &r;
            break;
        }
        if (r.lastUse < victim->lastUse)
            victim = &r;
    }
    *victim = entry;
    victim->lastUse = tick_;
}

void
RangeTlb::invalidate(Vaddr va)
{
    Vpn vpn = vm::vpnOf(va);
    for (auto &r : ranges_)
        if (r.covers(vpn))
            r.valid = false;
}

void
RangeTlb::flush()
{
    for (auto &r : ranges_)
        r.valid = false;
}

TlbEntry
RangeTlb::makeBasePageEntry(Vaddr va, const RangeEntry &r)
{
    Vpn vpn = vm::vpnOf(va);
    tps_assert(r.covers(vpn));
    TlbEntry e;
    e.valid = true;
    e.vpnTag = vpn;
    e.vpnMask = 0;
    e.pfn = static_cast<Pfn>(static_cast<int64_t>(vpn) + r.offset);
    e.pageBits = vm::kBasePageBits;
    e.writable = r.writable;
    e.user = r.user;
    // Ranges are installed by the OS for already-touched memory; treat
    // A as set so the fill does not trigger a spurious PTE write.
    e.accessed = true;
    return e;
}

unsigned
RangeTlb::occupancy() const
{
    unsigned n = 0;
    for (const auto &r : ranges_)
        n += r.valid ? 1 : 0;
    return n;
}

} // namespace tps::tlb
