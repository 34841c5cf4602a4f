/**
 * @file
 * Paging-policy interface and OS-work cost model.
 *
 * A paging policy decides how mmap regions are backed by physical
 * memory: which reservations to create, what to map on a demand fault,
 * and when to promote mappings to larger page sizes.  The paper's four
 * designs (base-4K demand paging, reservation-based THP, TPS, RMM) plus
 * CoLT's contiguity-seeking 4K allocation are each one policy; the
 * simulation engine and every figure harness treat them uniformly.
 *
 * Policies charge their work to an OsWork ledger using the cycle costs
 * below; the engine folds the ledger into the Fig. 17 system-time
 * percentage.
 */

#ifndef TPS_OS_POLICY_HH
#define TPS_OS_POLICY_HH

#include <cstdint>
#include <optional>

#include "vm/addr.hh"

namespace tps::os {

class AddressSpace;
struct Vma;

/** Cycle costs of OS memory-management work (order-of-magnitude model). */
namespace oscost {
constexpr uint64_t kFaultEntry = 500;     //!< trap + handler entry/exit
constexpr uint64_t kBuddyOp = 120;        //!< one allocator operation
constexpr uint64_t kReservationOp = 150;  //!< reservation-table update
constexpr uint64_t kPteWrite = 12;        //!< one PTE store
constexpr uint64_t kZeroPerBasePage = 600; //!< clearing 4 KB
constexpr uint64_t kCopyPerBasePage = 400; //!< migrating 4 KB
constexpr uint64_t kShootdown = 200;      //!< one INVLPG + bookkeeping
} // namespace oscost

/** Ledger of simulated OS work in cycles, by category. */
struct OsWork
{
    uint64_t faultCycles = 0;      //!< fault-entry cycles
    uint64_t allocCycles = 0;      //!< allocator cycles
    uint64_t pteCycles = 0;        //!< PTE update cycles
    uint64_t zeroCycles = 0;       //!< page-zeroing cycles
    uint64_t shootdownCycles = 0;  //!< TLB shootdown cycles
    uint64_t faults = 0;           //!< faults handled
    uint64_t promotions = 0;       //!< page promotions
    uint64_t reservationsCreated = 0;
    uint64_t reservationsMissed = 0;  //!< fell back to smaller blocks

    uint64_t
    totalCycles() const
    {
        return faultCycles + allocCycles + pteCycles + zeroCycles +
               shootdownCycles;
    }
};

/** An OS-side range-table entry (RMM). */
struct OsRange
{
    vm::Vpn baseVpn = 0;
    uint64_t pages = 0;
    int64_t offset = 0;   //!< pfn = vpn + offset
    bool writable = false;
};

/** The policy interface. */
class PagingPolicy
{
  public:
    virtual ~PagingPolicy() = default;

    /** Short name for tables ("thp", "tps", ...). */
    virtual const char *name() const = 0;

    /** A new VMA was created by mmap. */
    virtual void onMmap(AddressSpace &as, const Vma &vma) = 0;

    /** The VMA is being removed; release frames and reservations. */
    virtual void onMunmap(AddressSpace &as, const Vma &vma) = 0;

    /**
     * Handle a demand fault at @p va.
     * @return true if a mapping was installed (retry the access).
     */
    virtual bool onFault(AddressSpace &as, vm::Vaddr va, bool write) = 0;

    /**
     * RMM only: the OS range covering @p va, used by the MMU to refill
     * the range TLB after a miss.
     */
    virtual std::optional<OsRange>
    rangeFor(vm::Vaddr va) const
    {
        (void)va;
        return std::nullopt;
    }

    /** Preferred VA alignment (log2) for a mapping of @p length bytes. */
    virtual unsigned
    vaAlignBits(uint64_t length) const
    {
        (void)length;
        return vm::kBasePageBits;
    }
};

} // namespace tps::os

#endif // TPS_OS_POLICY_HH
