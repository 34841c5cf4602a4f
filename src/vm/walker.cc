#include "vm/walker.hh"

#include "obs/event_trace.hh"
#include "util/logging.hh"

namespace tps::vm {

namespace {

/** Synthetic frame used to charge the 5th-level table access. */
constexpr Pfn kPml5Frame = (1ull << 39) - 1;

} // namespace

PageWalker::PageWalker(PageTable &table, MmuCache *cache, WalkerConfig cfg)
    : table_(table), cache_(cache), cfg_(cfg)
{
    if (cfg_.virtualized)
        nested_.resize(cfg_.nestedTlbEntries);
}

unsigned
PageWalker::nestedCost(Paddr pa)
{
    // Nested translations are cached per guest table frame; a miss
    // costs a full nested walk.
    uint64_t tag = pa >> kBasePageBits;
    ++nestedTick_;
    NestedEntry *victim = &nested_[0];
    for (auto &e : nested_) {
        if (e.valid && e.tag == tag) {
            e.lastUse = nestedTick_;
            ++stats_.nestedTlbHits;
            return 0;
        }
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lastUse < victim->lastUse)
            victim = &e;
    }
    ++stats_.nestedTlbMisses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = nestedTick_;
    return cfg_.nestedWalkAccesses;
}

WalkResult
PageWalker::walk(Vaddr va)
{
    WalkResult res;
    ++stats_.walks;

    auto add_ref = [&](Paddr pa) {
        if (res.nrefs < res.refs.size())
            res.refs[res.nrefs++] = pa;
        ++res.accesses;
        if (cfg_.virtualized)
            res.nestedAccesses += nestedCost(pa);
    };

    PageTableNode *node = nullptr;
    unsigned level;
    unsigned hit_level =
        cache_ ? cache_->lookup(va, table_.generation(), node) : 0;
    res.hitLevel = hit_level;
    if (hit_level) {
        level = hit_level - 1;
    } else {
        node = &table_.root();
        level = kLevels;
        if (cfg_.fiveLevel) {
            // Full walks in 5-level mode read one extra top-level entry.
            add_ref((kPml5Frame << kBasePageBits) +
                    vaIndex(va, kLevels) * sizeof(uint64_t));
        }
    }

    for (;; --level) {
        unsigned idx = vaIndex(va, level);
        add_ref(node->entryPaddr(idx));
        Pte pte = node->ptes[idx];

        if (!pte.present()) {
            res.fault = true;
            break;
        }

        bool is_leaf = (level == 1) || pte.pageSize();
        if (is_leaf) {
            unsigned true_idx = idx;
            if (pte.tailored()) {
                // Both alias and true PTEs carry the size code, so the
                // span is known after this read.
                LeafInfo probe = decodeLeafPte(pte, level,
                                               table_.encoding());
                unsigned span = spanBits(probe.pageBits);
                true_idx = idx & ~lowMask(span);
                if (true_idx != idx &&
                    table_.aliasMode() == AliasMode::Pointer) {
                    // Pointer-mode alias: re-read the true PTE with the
                    // offset index bits zeroed -- the one extra access.
                    add_ref(node->entryPaddr(true_idx));
                    ++res.aliasExtra;
                    pte = node->ptes[true_idx];
                } else if (true_idx != idx) {
                    // FullCopy aliases are complete; decode in place but
                    // report the true PTE's address for A/D updates.
                    pte = node->ptes[idx];
                }
            }
            res.leaf = decodeLeafPte(pte, level, table_.encoding());
            res.pageBase = alignDown(va, 1ull << res.leaf.pageBits);
            res.truePtePaddr = node->entryPaddr(true_idx);
            break;
        }

        PageTableNode *child = node->children[idx].get();
        // A present directory whose host object was released (sparse
        // table, empty subtree): bring it back so the walk reads the
        // same frames the dense table would.
        if (!child)
            child = table_.materializeChild(node, idx);
        if (cache_)
            cache_->fill(va, level, table_.generation(), child);
        node = child;
    }

    stats_.accesses += res.accesses;
    stats_.aliasExtra += res.aliasExtra;
    stats_.nestedAccesses += res.nestedAccesses;
    if (res.fault)
        ++stats_.faults;
    if (trace_) {
        trace_->walk(va, res.accesses, res.hitLevel, res.fault,
                     res.fault ? 0 : res.leaf.pageBits);
    }
    return res;
}

} // namespace tps::vm
