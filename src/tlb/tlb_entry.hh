/**
 * @file
 * The TLB entry shared by all TLB structures.
 *
 * Entries are tagged at base-page (4 KB) VPN granularity and carry a
 * *page mask* (paper Fig. 7): the set of low VPN bits that are actually
 * page offset for this entry's page size.  A lookup masks the incoming
 * VPN before tag comparison -- one extra AND gate per way -- which is the
 * TPS any-page-size matching rule.  Conventional fixed-size structures
 * simply always use a zero mask.
 */

#ifndef TPS_TLB_TLB_ENTRY_HH
#define TPS_TLB_TLB_ENTRY_HH

#include <cstdint>

#include "util/bitops.hh"
#include "vm/addr.hh"
#include "vm/pte.hh"

namespace tps::tlb {

using vm::Paddr;
using vm::Pfn;
using vm::Vaddr;
using vm::Vpn;

/** One translation cached in some TLB structure. */
struct TlbEntry
{
    bool valid = false;
    Vpn vpnTag = 0;        //!< base-page VPN with offset-excess bits zero
    uint64_t vpnMask = 0;  //!< low VPN bits that are offset (1 = ignore)
    Pfn pfn = 0;           //!< true (aligned) frame number
    unsigned pageBits = vm::kBasePageBits;
    bool writable = false;
    bool user = false;
    bool noExecute = false;
    bool accessed = false; //!< cached A bit (suppresses PTE A writes)
    bool dirty = false;    //!< cached D bit (suppresses PTE D writes)
    Paddr truePtePaddr = 0; //!< where A/D updates must be written

    /** Build an entry from a decoded leaf. */
    static TlbEntry
    fromLeaf(Vaddr va, const vm::LeafInfo &leaf, Paddr true_pte_paddr)
    {
        TlbEntry e;
        e.valid = true;
        unsigned excess = leaf.pageBits - vm::kBasePageBits;
        e.vpnMask = lowMask(excess);
        e.vpnTag = (va >> vm::kBasePageBits) & ~e.vpnMask;
        e.pfn = leaf.pfn;
        e.pageBits = leaf.pageBits;
        e.writable = leaf.writable;
        e.user = leaf.user;
        e.noExecute = leaf.noExecute;
        e.accessed = leaf.accessed;
        e.dirty = leaf.dirty;
        e.truePtePaddr = true_pte_paddr;
        return e;
    }

    /** Masked tag match against a base-page VPN. */
    bool
    matches(Vpn vpn) const
    {
        return valid && ((vpn & ~vpnMask) == vpnTag);
    }

    /** Translate @p va (must match) to its physical address. */
    Paddr
    translate(Vaddr va) const
    {
        return (pfn << vm::kBasePageBits) + vm::pageOffset(va, pageBits);
    }

    /** VA of the first byte of the mapped page. */
    Vaddr pageBase() const { return vpnTag << vm::kBasePageBits; }
};

} // namespace tps::tlb

#endif // TPS_TLB_TLB_ENTRY_HH
