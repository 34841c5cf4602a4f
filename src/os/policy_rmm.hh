/**
 * @file
 * Redundant Memory Mappings OS policy (Karakostas et al., ISCA 2015).
 *
 * RMM eagerly backs each mmap region with contiguous physical frames --
 * with *no* alignment or size restriction -- and records the resulting
 * ranges in an OS range table maintained redundantly alongside the page
 * table (which is still populated with base pages).  The MMU refills the
 * hardware range TLB from this table after range-TLB misses.  Under
 * fragmentation a region is backed by several ranges, one per contiguous
 * run the allocator could supply.
 */

#ifndef TPS_OS_POLICY_RMM_HH
#define TPS_OS_POLICY_RMM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "os/address_space.hh"
#include "os/policy.hh"
#include "os/vma.hh"

namespace tps::os {

/** The RMM policy. */
class RmmPolicy : public PagingPolicy
{
  public:
    RmmPolicy() = default;

    const char *name() const override { return "rmm"; }
    void onMmap(AddressSpace &as, const Vma &vma) override;
    void onMunmap(AddressSpace &as, const Vma &vma) override;
    bool onFault(AddressSpace &as, vm::Vaddr va, bool write) override;
    std::optional<OsRange> rangeFor(vm::Vaddr va) const override;

    /** Number of ranges in the OS range table. */
    size_t rangeCount() const { return ranges_.size(); }

    /** The whole range table (inspection). */
    const std::map<vm::Vpn, OsRange> &ranges() const { return ranges_; }

  private:
    /**
     * Allocate @p pages physically contiguous frames, degrading to the
     * largest available run under fragmentation.
     * @return (first frame, run length in pages), length 0 on OOM.
     */
    std::pair<Pfn, uint64_t> allocRun(AddressSpace &as, uint64_t pages);

    /** Free a previously allocated run. */
    static void freeRun(AddressSpace &as, Pfn pfn, uint64_t pages);

    //! OS range table keyed by first VPN.
    std::map<vm::Vpn, OsRange> ranges_;
    //! Physical runs per VMA start, for munmap.
    std::map<vm::Vaddr, std::vector<std::pair<Pfn, uint64_t>>> runs_;
};

} // namespace tps::os

#endif // TPS_OS_POLICY_RMM_HH
