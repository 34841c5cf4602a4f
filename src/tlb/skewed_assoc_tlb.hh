/**
 * @file
 * Skewed-associative any-page-size TLB (Seznec, "Concurrent support of
 * multiple page sizes on a skewed associative TLB"; cited by the paper
 * as an alternative to the fully associative TPS TLB).
 *
 * Each way has its own index hash mixing the page-size-normalized VPN
 * and the page size, so entries of different sizes coexist without CAM
 * hardware.  A lookup probes one slot per (way, live page size) pair;
 * live-size counters keep the probe count proportional to the sizes
 * actually resident.  Replacement picks an invalid candidate slot if
 * one exists, else the least recently used among the candidates.
 */

#ifndef TPS_TLB_SKEWED_ASSOC_TLB_HH
#define TPS_TLB_SKEWED_ASSOC_TLB_HH

#include <cstdint>
#include <vector>

#include "tlb/any_size_tlb.hh"

namespace tps::tlb {

/** The skewed-associative TLB. */
class SkewedAssocTlb : public AnySizeTlb
{
  public:
    /**
     * @param entries  Total entries (sets-per-way x ways).
     * @param ways     Number of skewed ways.
     */
    SkewedAssocTlb(unsigned entries, unsigned ways);

    TlbEntry *
    lookup(Vaddr va) override
    {
        ++tick_;
        Vpn vpn = vm::vpnOf(va);
        for (unsigned pb = vm::kBasePageBits; pb <= vm::kMaxPageBits;
             ++pb) {
            if (livePerSize_[pb] == 0)
                continue;
            for (unsigned w = 0; w < ways_; ++w) {
                size_t i = slotIndex(w, indexOf(w, va, pb));
                TlbEntry &e = entries_[i];
                if (e.valid && e.pageBits == pb && e.matches(vpn)) {
                    lastUses_[i] = tick_;
                    return &e;
                }
            }
        }
        return nullptr;
    }

    const TlbEntry *probe(Vaddr va) const override;
    TlbEntry *findMutable(Vaddr va) override;
    TlbEntry *fill(const TlbEntry &entry) override;
    void invalidate(Vaddr va) override;
    void flush() override;

    unsigned capacity() const override
    {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned occupancy() const override;

    unsigned ways() const { return ways_; }

    void
    forEachEntry(const EntryVisitor &visit) const override
    {
        for (const TlbEntry &e : entries_)
            if (e.valid)
                visit(e);
    }

  private:
    /** Cheap strong mix (splitmix64 finalizer). */
    static constexpr uint64_t
    mix(uint64_t x)
    {
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /** Way-specific index hash for a page of 2^@p page_bits at @p va. */
    unsigned
    indexOf(unsigned way, Vaddr va, unsigned page_bits) const
    {
        uint64_t key = (va >> page_bits) * (vm::kMaxPageBits + 1) +
                       page_bits;
        return static_cast<unsigned>(
            mix(key + way * 0x9e3779b97f4a7c15ull) & (sets_ - 1));
    }

    /** Position of (way, index) in entries_ and lastUses_. */
    size_t
    slotIndex(unsigned way, unsigned idx) const
    {
        return static_cast<size_t>(way) * sets_ + idx;
    }

    unsigned ways_;
    unsigned sets_;   //!< sets per way
    std::vector<TlbEntry> entries_;
    //! Per-slot LRU stamp; read only for valid slots.
    std::vector<uint64_t> lastUses_;
    std::vector<uint64_t> livePerSize_;
    uint64_t tick_ = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_SKEWED_ASSOC_TLB_HH
