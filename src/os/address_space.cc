#include "os/address_space.hh"

#include "obs/event_trace.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

namespace tps::os {

AddressSpace::AddressSpace(PhysMemory &pm,
                           std::unique_ptr<PagingPolicy> policy,
                           Config cfg)
    : phys_(pm), policy_(std::move(policy)), cfg_(cfg),
      pageTable_(pm, cfg.encoding, cfg.aliasMode, cfg.denseState),
      mmapCursor_(cfg.mmapBase)
{
    tps_assert(policy_ != nullptr);
}

AddressSpace::AddressSpace(PhysMemory &pm,
                           std::unique_ptr<PagingPolicy> policy)
    : AddressSpace(pm, std::move(policy), Config{})
{
}

AddressSpace::~AddressSpace()
{
    // Tear down outstanding VMAs so frames return to the allocator.
    while (!vmas_.empty())
        munmap(vmas_.begin()->first);
}

vm::Vaddr
AddressSpace::mmap(uint64_t length, bool writable)
{
    tps_assert(length > 0);
    length = alignUp(length, vm::kBasePageBytes);

    unsigned align_bits = policy_->vaAlignBits(length);
    if (align_bits > vm::kMaxPageBits)
        align_bits = vm::kMaxPageBits;
    vm::Vaddr start = alignUp(mmapCursor_, 1ull << align_bits);
    // Leave a guard page so adjacent VMAs never share an aligned block.
    mmapCursor_ = start + length + vm::kBasePageBytes;

    Vma vma{start, length, writable};
    vma.id = ++nextVmaId_;
    auto [it, inserted] = vmas_.emplace(start, vma);
    tps_assert(inserted);
    if (trace_)
        trace_->osMap(start, length, it->second.id);
    policy_->onMmap(*this, it->second);
    return start;
}

void
AddressSpace::munmap(vm::Vaddr start)
{
    auto it = vmas_.find(start);
    if (it == vmas_.end())
        throwSimError(ErrorKind::InvalidArgument,
                      "munmap of unmapped region %#llx",
                      static_cast<unsigned long long>(start));
    if (trace_)
        trace_->osUnmap(start, it->second.id);
    policy_->onMunmap(*this, it->second);
    if (unmapFn_)
        unmapFn_(start, start + it->second.length);
    if (cachedVma_ == &it->second)
        cachedVma_ = nullptr;
    vmas_.erase(it);
}

bool
AddressSpace::handleFault(vm::Vaddr va, bool write)
{
    const Vma *vma = findVma(va);
    if (!vma)
        return false;
    if (write && !vma->writable)
        return false;
    osWork_.faultCycles += oscost::kFaultEntry;
    ++osWork_.faults;
    if (trace_)
        trace_->osFault(va, write);
    // Copy-on-write resolution comes first: the page exists but is
    // write-protected, which the paging policy must not reinterpret
    // as a demand fault.
    if (cowFn_ && cowFn_(*this, va, write))
        return true;
    ++touchedBasePages_;
    return policy_->onFault(*this, va, write);
}

void
AddressSpace::insertVma(const Vma &vma)
{
    auto [it, inserted] = vmas_.emplace(vma.start, vma);
    tps_assert(inserted);
    if (it->second.id == 0)
        it->second.id = ++nextVmaId_;
    else if (it->second.id > nextVmaId_)
        nextVmaId_ = it->second.id;
    if (trace_)
        trace_->osMap(it->second.start, it->second.length,
                      it->second.id);
}

const Vma *
AddressSpace::findVma(vm::Vaddr va) const
{
    if (cachedVma_ && cachedVma_->contains(va))
        return cachedVma_;
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    if (!it->second.contains(va))
        return nullptr;
    cachedVma_ = &it->second;
    return cachedVma_;
}

void
AddressSpace::shootdown(vm::Vaddr va)
{
    osWork_.shootdownCycles += oscost::kShootdown;
    if (shootdownFn_)
        shootdownFn_(va);
}

void
AddressSpace::shootdownAll()
{
    osWork_.shootdownCycles += oscost::kShootdown;
    if (flushFn_)
        flushFn_();
}

Histogram
AddressSpace::pageSizeCensus() const
{
    Histogram hist;
    pageTable_.forEachLeaf(
        [&](vm::Vaddr, const vm::LeafInfo &leaf) {
            hist.add(leaf.pageBits);
        });
    return hist;
}

uint64_t
AddressSpace::mappedBytes() const
{
    uint64_t bytes = 0;
    pageTable_.forEachLeaf(
        [&](vm::Vaddr, const vm::LeafInfo &leaf) {
            bytes += 1ull << leaf.pageBits;
        });
    return bytes;
}

} // namespace tps::os
