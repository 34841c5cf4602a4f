#include "os/policy_rmm.hh"

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

namespace tps::os {

namespace {

/** Free [start, start+count) frames as aligned power-of-two blocks. */
void
freeFrameRange(AddressSpace &as, Pfn start, uint64_t count)
{
    while (count > 0) {
        uint64_t block = largestAlignedPow2(start, count);
        as.phys().freeApp(start, log2Floor(block));
        start += block;
        count -= block;
    }
}

} // namespace

std::pair<Pfn, uint64_t>
RmmPolicy::allocRun(AddressSpace &as, uint64_t pages)
{
    OsWork &work = as.osWork();
    unsigned want = log2Ceil(pages);
    if (want > BuddyAllocator::kMaxOrder)
        want = BuddyAllocator::kMaxOrder;
    for (int o = static_cast<int>(want); o >= 0; --o) {
        work.allocCycles += oscost::kBuddyOp;
        auto pfn = as.phys().allocApp(static_cast<unsigned>(o));
        if (!pfn)
            continue;
        uint64_t got = 1ull << o;
        uint64_t run = got < pages ? got : pages;
        if (run < got) {
            // Give the unused tail straight back; ranges have no
            // alignment restriction, so nothing is wasted.
            freeFrameRange(as, *pfn + run, got - run);
            work.allocCycles += oscost::kBuddyOp;
        }
        return {*pfn, run};
    }
    return {0, 0};
}

void
RmmPolicy::freeRun(AddressSpace &as, Pfn pfn, uint64_t pages)
{
    freeFrameRange(as, pfn, pages);
}

void
RmmPolicy::onMmap(AddressSpace &as, const Vma &vma)
{
    OsWork &work = as.osWork();
    uint64_t pages = vma.length >> vm::kBasePageBits;
    vm::Vaddr va = vma.start;
    auto &vma_runs = runs_[vma.start];

    while (pages > 0) {
        auto [pfn, run] = allocRun(as, pages);
        if (run == 0)
            throwSimError(ErrorKind::OutOfMemory,
                          "RMM eager paging: out of physical memory");
        vma_runs.emplace_back(pfn, run);

        // Populate the page table with base pages (RMM keeps both
        // structures redundantly).
        for (uint64_t i = 0; i < run; ++i) {
            as.pageTable().map(va + (i << vm::kBasePageBits), pfn + i,
                               vm::kBasePageBits, vma.writable, true);
        }
        work.pteCycles += oscost::kPteWrite * run;
        work.zeroCycles += oscost::kZeroPerBasePage * run;

        // Record (or extend) the OS range.
        vm::Vpn vpn = vm::vpnOf(va);
        int64_t offset = static_cast<int64_t>(pfn) -
                         static_cast<int64_t>(vpn);
        bool merged = false;
        if (!ranges_.empty()) {
            auto last = std::prev(ranges_.end());
            OsRange &r = last->second;
            if (r.baseVpn + r.pages == vpn && r.offset == offset &&
                r.writable == vma.writable) {
                r.pages += run;
                merged = true;
            }
        }
        if (!merged)
            ranges_[vpn] = OsRange{vpn, run, offset, vma.writable};
        work.allocCycles += oscost::kReservationOp;

        va += run << vm::kBasePageBits;
        pages -= run;
    }
}

bool
RmmPolicy::onFault(AddressSpace &as, vm::Vaddr va, bool write)
{
    // Eager paging maps everything up front; a fault can only mean the
    // region lost its backing (not modeled) or a stray access.  Back it
    // with a single demand page and a one-page range.
    (void)write;
    const Vma *vma = as.findVma(va);
    tps_assert(vma != nullptr);
    OsWork &work = as.osWork();
    work.allocCycles += oscost::kBuddyOp;
    auto pfn = as.phys().allocApp(0);
    if (!pfn)
        return false;
    vm::Vaddr base = alignDown(va, vm::kBasePageBytes);
    as.pageTable().map(base, *pfn, vm::kBasePageBits, vma->writable,
                       true);
    work.pteCycles += oscost::kPteWrite;
    work.zeroCycles += oscost::kZeroPerBasePage;
    vm::Vpn vpn = vm::vpnOf(base);
    ranges_[vpn] = OsRange{vpn, 1,
                           static_cast<int64_t>(*pfn) -
                               static_cast<int64_t>(vpn),
                           vma->writable};
    runs_[vma->start].emplace_back(*pfn, 1);
    return true;
}

std::optional<OsRange>
RmmPolicy::rangeFor(vm::Vaddr va) const
{
    vm::Vpn vpn = vm::vpnOf(va);
    auto it = ranges_.upper_bound(vpn);
    if (it == ranges_.begin())
        return std::nullopt;
    --it;
    const OsRange &r = it->second;
    if (vpn >= r.baseVpn && vpn < r.baseVpn + r.pages)
        return r;
    return std::nullopt;
}

void
RmmPolicy::onMunmap(AddressSpace &as, const Vma &vma)
{
    OsWork &work = as.osWork();

    // Drop all page-table leaves in the region.
    std::vector<vm::Vaddr> bases;
    as.pageTable().forEachLeafInRange(
        vma.start, vma.end(),
        [&](vm::Vaddr base, const vm::LeafInfo &) {
            bases.push_back(base);
        });
    if (bases.size() > 256) {
        as.shootdownAll();
    }
    for (vm::Vaddr base : bases) {
        as.pageTable().unmap(base);
        if (bases.size() <= 256)
            as.shootdown(base);
    }
    work.pteCycles += oscost::kPteWrite * bases.size();

    // Drop OS ranges starting inside the VMA.
    vm::Vpn start_vpn = vm::vpnOf(vma.start);
    vm::Vpn end_vpn = vm::vpnOf(vma.end());
    for (auto it = ranges_.lower_bound(start_vpn);
         it != ranges_.end() && it->first < end_vpn;) {
        it = ranges_.erase(it);
    }

    // Free the physical runs.
    auto rit = runs_.find(vma.start);
    if (rit != runs_.end()) {
        for (const auto &[pfn, pages] : rit->second) {
            freeRun(as, pfn, pages);
            work.allocCycles += oscost::kBuddyOp;
        }
        runs_.erase(rit);
    }
}

} // namespace tps::os
