/**
 * @file
 * Per-process virtual address space: VMA bookkeeping, the page table,
 * the reservation table, and the syscall-level API (mmap/munmap/fault)
 * that workloads and the simulation engine drive.
 *
 * The address space delegates all backing decisions to its paging
 * policy.  TLB shootdowns requested by policies are forwarded to a
 * registered listener (the MMU).
 */

#ifndef TPS_OS_ADDRESS_SPACE_HH
#define TPS_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "os/compaction_stats.hh"
#include "os/phys_memory.hh"
#include "os/policy.hh"
#include "os/reservation.hh"
#include "os/vma.hh"
#include "util/stats.hh"
#include "vm/page_table.hh"

namespace tps::obs {
class EventTrace;
class MemTelemetry;
} // namespace tps::obs

namespace tps::os {

/** The address space. */
class AddressSpace
{
  public:
    /** Construction knobs. */
    struct Config
    {
        vm::SizeEncoding encoding = vm::SizeEncoding::Napot;
        vm::AliasMode aliasMode = vm::AliasMode::Pointer;
        vm::Vaddr mmapBase = 0x10000000000ull;  //!< first mmap VA (1 TB)
        //! Dense page-table node residency (the sparse/dense oracle
        //! switch); host-only, never serialized into manifests.
        bool denseState = false;
    };

    /**
     * @param pm      Physical memory backing this process.
     * @param policy  Paging policy; owned by the address space.
     * @param cfg     Encoding/alias/mmap-base knobs.
     */
    AddressSpace(PhysMemory &pm, std::unique_ptr<PagingPolicy> policy,
                 Config cfg);

    /** Construct with default Config. */
    AddressSpace(PhysMemory &pm, std::unique_ptr<PagingPolicy> policy);

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map @p length bytes (rounded up to base pages) of anonymous
     * memory.  The VA is chosen with the policy's preferred alignment.
     * @return the start address.
     */
    vm::Vaddr mmap(uint64_t length, bool writable = true);

    /** Unmap the entire VMA starting at @p start. */
    void munmap(vm::Vaddr start);

    /**
     * Demand-fault entry point (called on a translation fault).
     * @return true if the policy installed a mapping (retry), false if
     *         @p va is outside every VMA (a segfault).
     */
    bool handleFault(vm::Vaddr va, bool write);

    /** The VMA containing @p va, or nullptr. */
    const Vma *findVma(vm::Vaddr va) const;

    vm::PageTable &pageTable() { return pageTable_; }
    const vm::PageTable &pageTable() const { return pageTable_; }
    ReservationTable &reservations() { return reservations_; }
    const ReservationTable &reservations() const { return reservations_; }
    PhysMemory &phys() { return phys_; }
    const PhysMemory &phys() const { return phys_; }
    PagingPolicy &policy() { return *policy_; }
    const PagingPolicy &policy() const { return *policy_; }
    OsWork &osWork() { return osWork_; }
    const OsWork &osWork() const { return osWork_; }

    /** Request a TLB shootdown for the page containing @p va. */
    void shootdown(vm::Vaddr va);

    /** Request a full TLB flush (bulk teardown). */
    void shootdownAll();

    /** Register the shootdown listener (the MMU). */
    void
    setShootdownListener(std::function<void(vm::Vaddr)> fn)
    {
        shootdownFn_ = std::move(fn);
    }

    /** Register the full-flush listener (the MMU). */
    void
    setFlushListener(std::function<void()> fn)
    {
        flushFn_ = std::move(fn);
    }

    /**
     * Register the copy-on-write resolver, consulted by handleFault()
     * before the paging policy.  It returns true when it handled the
     * fault (a write hit a CoW-armed read-only page).
     */
    void
    setCowHandler(std::function<bool(AddressSpace &, vm::Vaddr, bool)> fn)
    {
        cowFn_ = std::move(fn);
    }

    /**
     * Register an observer fired by munmap() with the VMA's [start,
     * end) range after its pages are gone.  Host-side bookkeeping
     * keyed by VA (the MMU's A/D shadow vectors) uses this to drop
     * per-range payloads; mmap never reuses addresses, so dropping is
     * invisible to the simulation.
     */
    void
    setUnmapListener(std::function<void(vm::Vaddr, vm::Vaddr)> fn)
    {
        unmapFn_ = std::move(fn);
    }

    /**
     * Insert a VMA verbatim (used when cloning an address space for
     * copy-on-write; ordinary mappings should use mmap()).
     */
    void insertVma(const Vma &vma);

    /** Histogram of mapped page sizes: log2(size) -> page count (Fig 18). */
    Histogram pageSizeCensus() const;

    /** Bytes currently mapped, including promotion bloat (Fig 9). */
    uint64_t mappedBytes() const;

    /** Base pages demand-touched so far (4 KB-equivalent usage). */
    uint64_t touchedBasePages() const { return touchedBasePages_; }

    /** All VMAs, keyed by start (inspection). */
    const std::map<vm::Vaddr, Vma> &vmas() const { return vmas_; }


    /**
     * Attach an event trace.  OS events (map/unmap/fault/reservation/
     * promotion/compaction merge) are recorded there; policies reach
     * the same stream through eventTrace().  nullptr disables.
     */
    void setEventTrace(obs::EventTrace *trace) { trace_ = trace; }
    obs::EventTrace *eventTrace() const { return trace_; }

    /**
     * Attach a physical-memory telemetry probe.  Policies and the
     * merge pass reach it through memTelemetry() to report reservation
     * lifecycle and compaction-yield events.  nullptr disables.  The
     * probe must outlive this address space: the destructor's unmaps
     * fire the release hooks too.
     */
    void setMemTelemetry(obs::MemTelemetry *tel) { memTel_ = tel; }
    obs::MemTelemetry *memTelemetry() const { return memTel_; }

    /**
     * Per-process compaction totals, accumulated by the merge pass
     * (CompactionDaemon moves driven through it included).
     */
    CompactionStats &compactionStats() { return compaction_; }
    const CompactionStats &compactionStats() const { return compaction_; }

  private:
    PhysMemory &phys_;
    std::unique_ptr<PagingPolicy> policy_;
    Config cfg_;
    vm::PageTable pageTable_;
    ReservationTable reservations_;
    std::map<vm::Vaddr, Vma> vmas_;
    /**
     * Last VMA findVma() returned.  Map nodes are stable and VMAs
     * never overlap, so "still contains the address" means "is the
     * unique answer"; fault streams with locality hit this nearly
     * every time.  Cleared by munmap().
     */
    mutable const Vma *cachedVma_ = nullptr;
    vm::Vaddr mmapCursor_;
    uint64_t nextVmaId_ = 0;
    obs::EventTrace *trace_ = nullptr;
    obs::MemTelemetry *memTel_ = nullptr;
    CompactionStats compaction_;
    OsWork osWork_;
    uint64_t touchedBasePages_ = 0;
    std::function<void(vm::Vaddr)> shootdownFn_;
    std::function<void()> flushFn_;
    std::function<void(vm::Vaddr, vm::Vaddr)> unmapFn_;
    std::function<bool(AddressSpace &, vm::Vaddr, bool)> cowFn_;
};

} // namespace tps::os

#endif // TPS_OS_ADDRESS_SPACE_HH
