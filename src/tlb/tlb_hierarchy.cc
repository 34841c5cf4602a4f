#include "tlb/tlb_hierarchy.hh"

#include "obs/event_trace.hh"
#include "util/logging.hh"

namespace tps::tlb {

namespace {

/** Every page size TPS can produce, for the multi-size STLB. */
std::vector<unsigned>
allPageSizes()
{
    std::vector<unsigned> sizes;
    for (unsigned pb = vm::kBasePageBits; pb <= vm::kMaxPageBits; ++pb)
        sizes.push_back(pb);
    return sizes;
}

} // namespace

TlbHierarchy::TlbHierarchy(const TlbHierarchyConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.design == TlbDesign::Colt) {
        coltL1_ = std::make_unique<ColtTlb>(cfg_.l1SmallEntries,
                                            cfg_.coltWays);
    } else {
        l1Small_ = std::make_unique<SetAssocTlb>(
            cfg_.l1SmallEntries, cfg_.l1SmallWays,
            std::vector<unsigned>{vm::kPageBits4K});
    }

    if (cfg_.design == TlbDesign::Tps) {
        // The TPS TLB replaces the 2 MB and 1 GB split L1s; the
        // skewed-associative variant is the paper's cited alternative.
        if (cfg_.tpsTlbSkewed) {
            tpsL1_ = std::make_unique<SkewedAssocTlb>(
                cfg_.tpsTlbEntries, cfg_.tpsTlbSkewWays);
        } else {
            tpsL1_ = std::make_unique<FullyAssocTlb>(cfg_.tpsTlbEntries);
        }
    } else {
        l1Large_ = std::make_unique<FullyAssocTlb>(cfg_.l1LargeEntries);
        l1Huge_ = std::make_unique<FullyAssocTlb>(cfg_.l1HugeEntries);
    }

    std::vector<unsigned> stlb_sizes =
        cfg_.design == TlbDesign::Tps
            ? allPageSizes()
            : std::vector<unsigned>{vm::kPageBits4K, vm::kPageBits2M};
    stlb_ = std::make_unique<SetAssocTlb>(cfg_.stlbEntries, cfg_.stlbWays,
                                          stlb_sizes);
    stlbHuge_ = std::make_unique<FullyAssocTlb>(cfg_.stlbHugeEntries);

    if (cfg_.design == TlbDesign::Rmm)
        rangeTlb_ = std::make_unique<RangeTlb>(cfg_.rangeTlbEntries);
}

TlbEntry *
TlbHierarchy::installL1(const TlbEntry &entry)
{
    Vaddr base = entry.pageBase();
    if (cfg_.design == TlbDesign::Colt &&
        entry.pageBits == vm::kBasePageBits) {
        // Uncoalesced single-page fill; the MMU fills coalesced runs
        // directly through coltTlb().
        ColtEntry ce;
        ce.valid = true;
        ce.startVpn = entry.vpnTag;
        ce.length = 1;
        ce.startPfn = entry.pfn;
        ce.writable = entry.writable;
        ce.user = entry.user;
        coltL1_->fill(ce);
        return nullptr;
    }
    if (entry.pageBits == vm::kBasePageBits && l1Small_)
        return l1Small_->fill(entry);
    if (tpsL1_) {
        // Any-size structure: a stale smaller entry covering the same
        // page may shadow the new fill in probe order, so the A/D
        // target must come from a probe, not the fill slot.  The fused
        // call does both in one scan.
        return tpsL1_->fillAndFind(entry, base);
    }
    if (entry.pageBits == vm::kPageBits2M)
        return l1Large_->fill(entry);
    if (entry.pageBits == vm::kPageBits1G && l1Huge_)
        return l1Huge_->fill(entry);
    // No L1 structure supports this page size (e.g. tailored pages on a
    // design without the TPS TLB): the translation lives only in the
    // L2 structures, exactly as hardware without the support would
    // behave.
    return nullptr;
}

TlbLookupResult
TlbHierarchy::lookup(Vaddr va)
{
    if (coltL1_) {
        if (ColtEntry *ce = coltL1_->lookup(va))
            return coltHit(va, *ce);
    }
    if (l1Small_) {
        if (TlbEntry *e = l1Small_->lookup(va))
            return l1Hit(va, e);
    }
    if (tpsL1_) {
        if (TlbEntry *e = tpsL1_->lookup(va))
            return l1Hit(va, e);
    }
    if (l1Large_) {
        if (TlbEntry *e = l1Large_->lookup(va))
            return l1Hit(va, e);
    }
    if (l1Huge_) {
        if (TlbEntry *e = l1Huge_->lookup(va))
            return l1Hit(va, e);
    }
    return lookupL2Tail(va);
}

TlbLookupResult
TlbHierarchy::lookupL2Tail(Vaddr va)
{
    // L2: STLB (and, for RMM, the range TLB in parallel).
    TlbLookupResult res;
    TlbEntry *stlb_hit = nullptr;
    if (stlb_)
        stlb_hit = stlb_->lookup(va);
    if (!stlb_hit && stlbHuge_)
        stlb_hit = stlbHuge_->lookup(va);
    RangeEntry *range_hit = rangeTlb_ ? rangeTlb_->lookup(va) : nullptr;

    if (stlb_hit) {
        res.level = TlbHitLevel::L2;
        res.entry = installL1(*stlb_hit);
        res.paddr = stlb_hit->translate(va);
        return res;
    }
    if (range_hit) {
        res.level = TlbHitLevel::L2;
        res.fromRange = true;
        TlbEntry constructed = RangeTlb::makeBasePageEntry(va, *range_hit);
        // The range path has no PTE address; A/D charging is handled by
        // the range-table software path, so mark both bits set.
        constructed.dirty = true;
        res.entry = installL1(constructed);
        res.paddr = constructed.translate(va);
        return res;
    }
    return res;
}

TlbEntry *
TlbHierarchy::fill(Vaddr va, const TlbEntry &entry)
{
    tps_assert(entry.valid);
    // Inclusive-ish: install in the STLB as well as L1.
    if (entry.pageBits == vm::kPageBits1G)
        stlbHuge_->fill(entry);
    else if (stlb_->supports(entry.pageBits))
        stlb_->fill(entry);
    (void)va;
    return installL1(entry);
}

void
TlbHierarchy::shootdown(Vaddr va)
{
    if (trace_)
        trace_->tlbShootdown(va);
    if (l1Small_)
        l1Small_->invalidate(va);
    if (coltL1_)
        coltL1_->invalidate(va);
    if (tpsL1_)
        tpsL1_->invalidate(va);
    if (l1Large_)
        l1Large_->invalidate(va);
    if (l1Huge_)
        l1Huge_->invalidate(va);
    if (stlb_)
        stlb_->invalidate(va);
    if (stlbHuge_)
        stlbHuge_->invalidate(va);
    if (rangeTlb_)
        rangeTlb_->invalidate(va);
}

void
TlbHierarchy::flushAll()
{
    if (trace_)
        trace_->tlbFlush();
    if (l1Small_)
        l1Small_->flush();
    if (coltL1_)
        coltL1_->flush();
    if (tpsL1_)
        tpsL1_->flush();
    if (l1Large_)
        l1Large_->flush();
    if (l1Huge_)
        l1Huge_->flush();
    if (stlb_)
        stlb_->flush();
    if (stlbHuge_)
        stlbHuge_->flush();
    if (rangeTlb_)
        rangeTlb_->flush();
}

} // namespace tps::tlb
