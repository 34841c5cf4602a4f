/**
 * @file
 * Set-associative, LRU TLB.
 *
 * Supports a *set* of page sizes in one physical structure by probing one
 * set per live page size (multi-probe, in the spirit of size-prediction /
 * skewed-associative designs the paper cites as alternatives).  With a
 * single supported size this degenerates to the conventional
 * index-by-VPN-low-bits design.  Per-size live-entry counters keep the
 * probe count at the number of sizes actually resident, not the number
 * supported.
 */

#ifndef TPS_TLB_SET_ASSOC_TLB_HH
#define TPS_TLB_SET_ASSOC_TLB_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "tlb/tlb_entry.hh"

namespace tps::tlb {

/** A set-associative TLB. */
class SetAssocTlb
{
  public:
    /**
     * @param entries Total entry count (sets * ways).
     * @param ways    Associativity; must divide entries.
     * @param page_bits_list  Page sizes (log2) this structure may hold.
     */
    SetAssocTlb(unsigned entries, unsigned ways,
                std::vector<unsigned> page_bits_list);

    /**
     * Look up @p va.
     * @return matching entry or nullptr; LRU touched on a hit.
     */
    TlbEntry *
    lookup(Vaddr va)
    {
        ++tick_;
        Vpn vpn = vm::vpnOf(va);
        // Kick off the key-line fetches for every live size before
        // probing any of them: the per-size sets scatter across the
        // key array, and issuing the loads together overlaps their
        // latencies.
        for (uint32_t m = liveMask_; m != 0; m &= m - 1) {
            unsigned pb = vm::kBasePageBits +
                          static_cast<unsigned>(std::countr_zero(m));
            __builtin_prefetch(&keys_[setIndex(va, pb) * ways_]);
        }
        // Iterate only the live page sizes, ascending (bit i of the
        // mask = size kBasePageBits + i), preserving the smallest-
        // size-first match order of the supported-size list.
        for (uint32_t m = liveMask_; m != 0; m &= m - 1) {
            unsigned pb = vm::kBasePageBits +
                          static_cast<unsigned>(std::countr_zero(m));
            // One packed-key compare per way: a set probe reads 8
            // bytes/way instead of a whole TlbEntry, so the 13-size
            // TPS STLB scan stays within a cache line or two per size.
            uint64_t needle =
                keyOf(pb, vpn & ~lowMask(pb - vm::kBasePageBits));
            unsigned set = setIndex(va, pb);
            const uint64_t *keys = &keys_[set * ways_];
            for (unsigned w = 0; w < ways_; ++w) {
                if (keys[w] == needle) {
                    size_t i = set * ways_ + w;
                    lastUses_[i] = tick_;
                    return &entries_[i];
                }
            }
        }
        return nullptr;
    }

    /** Probe without disturbing LRU (for tests/inspection). */
    const TlbEntry *probe(Vaddr va) const;

    /** Mutable probe (for A/D updates after a fill). */
    TlbEntry *
    findMutable(Vaddr va)
    {
        return const_cast<TlbEntry *>(
            static_cast<const SetAssocTlb *>(this)->probe(va));
    }

    /**
     * Install @p entry (its pageBits must be supported).
     * @return the slot it now occupies.
     */
    TlbEntry *fill(const TlbEntry &entry);

    /** Invalidate any entry mapping @p va. */
    void invalidate(Vaddr va);

    /** Invalidate everything. */
    void flush();

    /** True iff this structure can hold a page of 2^@p page_bits. */
    bool supports(unsigned page_bits) const;

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Number of valid entries currently resident. */
    unsigned occupancy() const;

    /** Visit every valid entry without disturbing state. */
    void
    forEachEntry(const std::function<void(const TlbEntry &)> &visit) const
    {
        for (const TlbEntry &e : entries_)
            if (e.valid)
                visit(e);
    }

  private:
    unsigned
    setIndex(Vaddr va, unsigned page_bits) const
    {
        return static_cast<unsigned>((va >> page_bits) & (sets_ - 1));
    }

    TlbEntry *
    findInSet(unsigned set, Vpn vpn, unsigned page_bits)
    {
        TlbEntry *base = &entries_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            TlbEntry &e = base[w];
            if (e.valid && e.pageBits == page_bits && e.matches(vpn))
                return &e;
        }
        return nullptr;
    }

    /** Key no valid entry can produce (pageBits < 256, VPN < 2^52). */
    static constexpr uint64_t kInvalidKey = ~0ull;

    /** Packed (pageBits, masked VPN tag) identity of a valid entry. */
    static constexpr uint64_t
    keyOf(unsigned page_bits, Vpn tag)
    {
        return (static_cast<uint64_t>(page_bits) << 56) | tag;
    }

    /**
     * Mirror entries_[i]'s identity into the packed key array and set
     * its LRU stamp to @p stamp.  Invalid slots take stamp 0 -- below
     * every valid stamp (ticks start at 1) -- so the fill victim scan
     * is a plain first-minimum over lastUses_ with no separate invalid
     * check.
     */
    void
    syncKey(size_t i, uint64_t stamp)
    {
        const TlbEntry &e = entries_[i];
        keys_[i] = e.valid ? keyOf(e.pageBits, e.vpnTag) : kInvalidKey;
        lastUses_[i] = e.valid ? stamp : 0;
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<unsigned> pageBitsList_;
    //! Bit (pb - kBasePageBits) set iff pb is in pageBitsList_.
    uint32_t supportMask_ = 0;
    std::vector<TlbEntry> entries_;   //!< sets_ x ways_, row-major
    //! Packed identity shadow of entries_ for the hot probe loop.
    std::vector<uint64_t> keys_;
    //! Per-slot LRU stamp (0 = invalid) for the fill victim scan.
    std::vector<uint64_t> lastUses_;
    std::vector<uint64_t> livePerSize_; //!< indexed by page_bits
    //! Bit (pb - kBasePageBits) set iff livePerSize_[pb] > 0.
    uint32_t liveMask_ = 0;
    uint64_t tick_ = 0;
};

} // namespace tps::tlb

#endif // TPS_TLB_SET_ASSOC_TLB_HH
