#include "sim/mmu.hh"

#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

namespace tps::sim {

Mmu::Mmu(os::AddressSpace &as, MemSys *memsys, MmuConfig cfg)
    : as_(as), memsys_(memsys), cfg_(cfg), tlb_(cfg.tlb),
      mmuCache_(cfg.mmuCache),
      walker_(as.pageTable(), &mmuCache_, cfg.walker)
{
    as_.setShootdownListener([this](vm::Vaddr va) {
        tlb_.shootdown(va);
        mmuCache_.invalidate(va);
    });
    as_.setFlushListener([this] {
        tlb_.flushAll();
        mmuCache_.invalidateAll();
    });
    // Follow sparse page-table node objects across release and
    // rematerialization so cached node pointers stay live (host-only;
    // no simulated cache state moves).
    as_.pageTable().setReleaseListener([this](const vm::PageTableNode *n) {
        mmuCache_.onNodeReleased(n);
    });
    as_.pageTable().setMaterializeListener([this](vm::PageTableNode *n) {
        mmuCache_.onNodeMaterialized(n);
    });
    as_.setUnmapListener([this](vm::Vaddr start, vm::Vaddr end) {
        releaseAdRange(start, end);
    });
}

Mmu::~Mmu()
{
    // The address space may outlive this MMU; stale listeners would
    // dangle on the next shootdown.
    as_.setShootdownListener(nullptr);
    as_.setFlushListener(nullptr);
    as_.setUnmapListener(nullptr);
    as_.pageTable().setReleaseListener(nullptr);
    as_.pageTable().setMaterializeListener(nullptr);
}

unsigned
Mmu::chargeWalk(const vm::WalkResult &walk)
{
    unsigned cycles = 0;
    if (memsys_) {
        for (unsigned i = 0; i < walk.nrefs; ++i)
            cycles += memsys_->access(walk.refs[i]);
        // Nested-dimension references are charged at LLC latency: nested
        // tables are hot but not L1-resident.
        cycles += walk.nestedAccesses *
                  memsys_->config().llcLatencyCycles;
    } else {
        cycles = walk.accesses * 30 + walk.nestedAccesses * 10;
    }
    return cycles;
}

void
Mmu::updateAdVector(vm::Vaddr page_base, unsigned page_bits,
                    vm::Vaddr va, bool write, vm::Paddr alias_paddr)
{
    // A stale smaller TLB entry for a since-promoted page is still a
    // correct translation (Sec. III-C2), so updates must land in the
    // *enclosing* tracked page's vector, not spawn a finer one.
    auto it = adVectors_.upper_bound(va);
    bool found = false;
    if (it != adVectors_.begin()) {
        --it;
        found = va < it->first + (1ull << it->second.first) &&
                it->second.first >= page_bits;
    }
    if (!found) {
        // New tailored page, or a promotion grew past the tracked
        // size: fresh vector at the larger granularity, absorbing the
        // finer-era vectors of its constituent pages.
        it = adVectors_
                 .insert_or_assign(
                     page_base,
                     std::make_pair(page_bits,
                                    vm::AdBitVector(
                                        page_bits,
                                        cfg_.adVectorBits)))
                 .first;
        auto stale = std::next(it);
        while (stale != adVectors_.end() &&
               stale->first < page_base + (1ull << page_bits)) {
            stale = adVectors_.erase(stale);
        }
    }
    uint64_t offset = va - it->first;
    bool store = write ? it->second.second.markDirty(offset)
                       : it->second.second.markAccessed(offset);
    if (store) {
        // The vector lives in the alias PTEs (the slot after the true
        // PTE); the store proceeds off the critical path
        // (Sec. III-C1) but is still a memory write.
        ++stats_.adVectorStores;
        if (memsys_)
            memsys_->access(alias_paddr);
    }
}

void
Mmu::releaseAdRange(vm::Vaddr start, vm::Vaddr end)
{
    // Tracked pages never straddle a VMA, so erasing entries based in
    // [start, end) removes exactly the unmapped VMA's vectors.
    auto first = adVectors_.lower_bound(start);
    auto last = first;
    while (last != adVectors_.end() && last->first < end)
        ++last;
    adVectors_.erase(first, last);
}

uint64_t
Mmu::fineDirtyBytes() const
{
    uint64_t bytes = 0;
    for (const auto &[base, entry] : adVectors_)
        bytes += entry.second.dirtyBytes();
    return bytes;
}

uint64_t
Mmu::coarseDirtyBytes() const
{
    uint64_t bytes = 0;
    for (const auto &[base, entry] : adVectors_)
        if (entry.second.dirtyMask() != 0)
            bytes += 1ull << entry.first;
    return bytes;
}

void
Mmu::updateAd(tlb::TlbEntry *entry, vm::Vaddr va, bool write)
{
    if (!entry)
        return;   // CoLT/range hits model A/D via their own structures
    if (cfg_.adBitVector && entry->pageBits > vm::kBasePageBits &&
        !vm::isConventional(entry->pageBits)) {
        updateAdVector(entry->pageBase(), entry->pageBits, va, write,
                       entry->truePtePaddr + sizeof(uint64_t));
    }
    bool set_a = !entry->accessed;
    bool set_d = write && !entry->dirty;
    if (set_a || set_d) {
        // Single leaf traversal for both bits; the per-bit PTE-write
        // accounting and memory references below match the separate
        // setAccessed/setDirty sequence exactly.
        as_.pageTable().setAccessedDirty(va, set_a, set_d);
    }
    if (set_a) {
        entry->accessed = true;
        ++stats_.adPteWrites;
        if (memsys_)
            memsys_->access(entry->truePtePaddr);
    }
    if (set_d) {
        entry->dirty = true;
        ++stats_.adPteWrites;
        if (memsys_)
            memsys_->access(entry->truePtePaddr);
    }
}

void
Mmu::fillColt(vm::Vaddr va, const vm::LeafInfo &leaf,
              vm::Paddr true_pte_paddr, bool fill_stlb)
{
    const vm::PageTable &pt = as_.pageTable();
    vm::Vpn vpn = vm::vpnOf(va);
    vm::Vpn cluster = alignDown(vpn, tlb::ColtTlb::kClusterPages);

    auto page_at = [&](vm::Vpn v) -> std::optional<vm::Pfn> {
        auto res = pt.lookup(v << vm::kBasePageBits);
        if (!res || res->leaf.pageBits != vm::kBasePageBits)
            return std::nullopt;
        return res->leaf.pfn;
    };

    vm::Pfn pfn = leaf.pfn;
    // Grow left.
    vm::Vpn start = vpn;
    vm::Pfn start_pfn = pfn;
    while (start > cluster) {
        auto p = page_at(start - 1);
        if (!p || *p + 1 != start_pfn)
            break;
        --start;
        start_pfn = *p;
    }
    // Grow right.
    vm::Vpn end = vpn + 1;
    vm::Pfn next_pfn = pfn + 1;
    while (end < cluster + tlb::ColtTlb::kClusterPages) {
        auto p = page_at(end);
        if (!p || *p != next_pfn)
            break;
        ++end;
        ++next_pfn;
    }

    tlb::ColtEntry ce;
    ce.valid = true;
    ce.startVpn = start;
    ce.length = static_cast<unsigned>(end - start);
    ce.startPfn = start_pfn;
    ce.writable = leaf.writable;
    ce.user = leaf.user;
    tlb_.coltTlb()->fill(ce);

    if (fill_stlb) {
        // Keep the STLB populated with the plain base-page entry.
        tlb::TlbEntry stlb_entry =
            tlb::TlbEntry::fromLeaf(va, leaf, true_pte_paddr);
        stlb_entry.accessed = true;
        tlb_.stlb()->fill(stlb_entry);
    }
}

uint64_t
Mmu::traceVmaId(vm::Vaddr va) const
{
    const os::Vma *vma = as_.findVma(va);
    return vma ? vma->id : 0;
}

MmuAccessResult
Mmu::access(vm::Vaddr va, bool write)
{
    return accessInternal(va, write, false);
}

MmuAccessResult
Mmu::accessInternal(vm::Vaddr va, bool write, bool retried)
{
    ++stats_.accesses;
    tlb::TlbLookupResult hit = tlb_.lookup(va);
    return finishAccess(hit, va, write, retried);
}

MmuAccessResult
Mmu::writeFaultRetry(vm::Vaddr va, bool retried)
{
    // Write-permission fault path (copy-on-write): the translation
    // exists but is read-only; raise the fault and retry once.
    ++stats_.writeProtFaults;
    bool resolved = false;
    if (!retried) {
        obs::ScopedTimer timer(profile_, obs::ProfPhase::OsFault);
        resolved = as_.handleFault(va, true);
    }
    if (!resolved) {
        throwSimError(ErrorKind::InvalidAccess,
                      "unresolvable write to read-only va %#llx",
                      static_cast<unsigned long long>(va));
    }
    MmuAccessResult inner = accessInternal(va, true, true);
    inner.faulted = true;
    return inner;
}

MmuAccessResult
Mmu::finishAccess(const tlb::TlbLookupResult &hit, vm::Vaddr va,
                  bool write, bool retried)
{
    MmuAccessResult res;
    auto write_fault = [&]() -> MmuAccessResult {
        return writeFaultRetry(va, retried);
    };

    if (hit.level == tlb::TlbHitLevel::L1) {
        if (write && hit.entry && !hit.entry->writable)
            return write_fault();
        ++stats_.l1Hits;
        updateAd(hit.entry, va, write);
        res.pa = hit.paddr;
        res.level = hit.level;
        res.translationCycles = 0;
        return res;
    }
    ++stats_.l1Misses;
    if (hit.level == tlb::TlbHitLevel::L2) {
        if (write && hit.entry && !hit.entry->writable) {
            // The retried access re-misses and records its own event,
            // so this miss must be attributed now (latency lands on
            // the retry).
            if (trace_) {
                trace_->tlbMiss(va, 0, hit.entry->pageBits,
                                traceVmaId(va), 0);
            }
            return write_fault();
        }
        ++stats_.l2Hits;
        updateAd(hit.entry, va, write);
        // CoLT re-coalesces on L2-hit refills too: the neighbouring
        // PTEs share the entry's cache line, so the probe is free.
        if (tlb_.design() == tlb::TlbDesign::Colt && !hit.fromColt) {
            auto leaf = as_.pageTable().lookup(va);
            if (leaf && leaf->leaf.pageBits == vm::kBasePageBits)
                fillColt(va, leaf->leaf, 0, false);
        }
        if (trace_) {
            trace_->tlbMiss(va, 0,
                            hit.entry ? hit.entry->pageBits : 0,
                            traceVmaId(va), cfg_.stlbHitPenalty);
        }
        res.pa = hit.paddr;
        res.level = hit.level;
        res.translationCycles = cfg_.stlbHitPenalty;
        stats_.stlbPenaltyCycles += cfg_.stlbHitPenalty;
        return res;
    }

    // Full miss: hardware page walk (servicing a demand fault if the
    // mapping does not exist yet, then re-walking).
    vm::WalkResult walk = [&] {
        obs::ScopedTimer timer(profile_, obs::ProfPhase::Walk);
        return walker_.walk(va);
    }();
    if (walk.fault) {
        stats_.faultWalkMemRefs += walk.accesses;
        stats_.nestedWalkRefs += walk.nestedAccesses;
        ++stats_.faults;
        bool mapped;
        {
            obs::ScopedTimer timer(profile_, obs::ProfPhase::OsFault);
            mapped = as_.handleFault(va, write);
        }
        if (!mapped) {
            throwSimError(ErrorKind::InvalidAccess,
                          "segfault: access to unmapped va %#llx",
                          static_cast<unsigned long long>(va));
        }
        {
            obs::ScopedTimer timer(profile_, obs::ProfPhase::Walk);
            walk = walker_.walk(va);
        }
        if (walk.fault)
            throwSimError(ErrorKind::InvalidAccess,
                          "fault handler failed to map va %#llx",
                          static_cast<unsigned long long>(va));
        res.faulted = true;
    }
    if (write && !walk.leaf.writable) {
        if (trace_) {
            trace_->tlbMiss(va, 1, walk.leaf.pageBits, traceVmaId(va),
                            0);
        }
        return write_fault();
    }
    ++stats_.walks;
    stats_.walkMemRefs += walk.accesses;
    stats_.nestedWalkRefs += walk.nestedAccesses;
    unsigned walk_cycles = chargeWalk(walk);
    stats_.walkCycles += walk_cycles;
    res.translationCycles = walk_cycles;
    if (trace_) {
        trace_->tlbMiss(va, 1, walk.leaf.pageBits, traceVmaId(va),
                        walk_cycles);
    }

    // Hardware A-bit update on fill.
    bool need_a = !walk.leaf.accessed;
    bool need_d = write && !walk.leaf.dirty;
    if (need_a || need_d)
        as_.pageTable().setAccessedDirty(va, need_a, need_d);
    if (need_a || need_d) {
        stats_.adPteWrites += (need_a ? 1 : 0) + (need_d ? 1 : 0);
        if (memsys_)
            memsys_->access(walk.truePtePaddr);
    }
    if (cfg_.adBitVector &&
        walk.leaf.pageBits > vm::kBasePageBits &&
        !vm::isConventional(walk.leaf.pageBits)) {
        updateAdVector(walk.pageBase, walk.leaf.pageBits, va, write,
                       walk.truePtePaddr + sizeof(uint64_t));
    }

    if (tlb_.design() == tlb::TlbDesign::Colt &&
        walk.leaf.pageBits == vm::kBasePageBits) {
        fillColt(va, walk.leaf, walk.truePtePaddr, true);
        res.pa = (walk.leaf.pfn << vm::kBasePageBits) +
                 vm::pageOffset(va, walk.leaf.pageBits);
        res.level = tlb::TlbHitLevel::Miss;
        return res;
    }

    tlb::TlbEntry entry =
        tlb::TlbEntry::fromLeaf(va, walk.leaf, walk.truePtePaddr);
    entry.accessed = true;
    entry.dirty = walk.leaf.dirty || need_d;
    tlb_.fill(va, entry);

    // RMM: refill the range TLB from the OS range table so subsequent
    // L1 misses in this range resolve without walking.
    if (tlb_.design() == tlb::TlbDesign::Rmm) {
        if (auto range = as_.policy().rangeFor(va)) {
            tlb::RangeEntry re;
            re.valid = true;
            re.baseVpn = range->baseVpn;
            re.limitVpn = range->baseVpn + range->pages - 1;
            re.offset = range->offset;
            re.writable = range->writable;
            re.user = true;
            tlb_.rangeTlb()->fill(re);
        }
    }

    res.pa = (walk.leaf.pfn << vm::kBasePageBits) +
             vm::pageOffset(va, walk.leaf.pageBits);
    res.level = tlb::TlbHitLevel::Miss;
    return res;
}

void
Mmu::clearStats()
{
    stats_ = MmuStats{};
    walker_.clearStats();
}

} // namespace tps::sim
