#include "tlb/colt_tlb.hh"

#include "util/logging.hh"

namespace tps::tlb {

ColtTlb::ColtTlb(unsigned entries, unsigned ways)
    : ways_(ways)
{
    tps_assert(ways_ > 0 && entries > 0 && entries % ways_ == 0);
    sets_ = entries / ways_;
    tps_assert(isPowerOfTwo(sets_));
    entries_.resize(entries);
}

const ColtEntry *
ColtTlb::probe(Vaddr va) const
{
    Vpn vpn = vm::vpnOf(va);
    unsigned set = setIndex(vpn);
    const ColtEntry *base = &entries_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w)
        if (base[w].covers(vpn))
            return &base[w];
    return nullptr;
}

void
ColtTlb::fill(const ColtEntry &entry)
{
    tps_assert(entry.valid && entry.length >= 1 &&
               entry.length <= kClusterPages);
    // The run must not cross an aligned cluster boundary, or set indexing
    // would split it.
    tps_assert(entry.startVpn / kClusterPages ==
               (entry.startVpn + entry.length - 1) / kClusterPages);
    ++tick_;
    unsigned set = setIndex(entry.startVpn);
    ColtEntry *base = &entries_[set * ways_];

    // Coalesce-in-place: replace an entry this run subsumes or equals.
    for (unsigned w = 0; w < ways_; ++w) {
        ColtEntry &e = base[w];
        if (e.valid && e.startVpn >= entry.startVpn &&
            e.startVpn + e.length <= entry.startVpn + entry.length) {
            e = entry;
            e.lastUse = tick_;
            return;
        }
    }

    ColtEntry *victim = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        ColtEntry &e = base[w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = entry;
    victim->lastUse = tick_;
}

void
ColtTlb::invalidate(Vaddr va)
{
    Vpn vpn = vm::vpnOf(va);
    unsigned set = setIndex(vpn);
    ColtEntry *base = &entries_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w)
        if (base[w].covers(vpn))
            base[w].valid = false;
}

void
ColtTlb::flush()
{
    for (auto &e : entries_)
        e.valid = false;
}

unsigned
ColtTlb::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

double
ColtTlb::coalescingFactor() const
{
    uint64_t pages = 0;
    uint64_t valid = 0;
    for (const auto &e : entries_) {
        if (e.valid) {
            ++valid;
            pages += e.length;
        }
    }
    return valid == 0 ? 0.0
                      : static_cast<double>(pages) /
                            static_cast<double>(valid);
}

} // namespace tps::tlb
