#include "vm/mmu_cache.hh"

#include "util/logging.hh"
#include "vm/page_table.hh"

namespace tps::vm {

MmuCache::MmuCache(const MmuCacheConfig &cfg)
{
    levels_[4].resize(cfg.pml4Entries);
    levels_[3].resize(cfg.pdpteEntries);
    levels_[2].resize(cfg.pdeEntries);
}

uint64_t
MmuCache::prefixOf(Vaddr va, unsigned level)
{
    // Index bits of levels kLevels..level, i.e. va[47 : 12+9*(level-1)].
    return va >> (kBasePageBits + (level - 1) * kIndexBits);
}

unsigned
MmuCache::lookup(Vaddr va, uint64_t generation, PageTableNode *&node)
{
    ++tick_;
    // Probe deepest first: a PDE-cache hit saves the most accesses.
    // The scan compares the packed (prefix, generation) arrays only;
    // the 40-byte entries are touched just on a hit.
    for (unsigned level = 2; level <= kLevels; ++level) {
        uint64_t prefix = prefixOf(va, level);
        LevelCache &lc = levels_[level];
        size_t n = lc.prefixes.size();
        for (size_t i = 0; i < n; ++i) {
            if (lc.prefixes[i] == prefix &&
                lc.gens[i] == generation) {
                Entry &e = lc.entries[i];
                e.lastUse = tick_;
                node = e.node;
                return level;
            }
        }
    }
    return 0;
}

void
MmuCache::fill(Vaddr va, unsigned level, uint64_t generation,
               PageTableNode *node)
{
    tps_assert(level >= 2 && level <= kLevels);
    tps_assert(node != nullptr);
    ++tick_;
    uint64_t prefix = prefixOf(va, level);
    LevelCache &lc = levels_[level];
    auto &entries = lc.entries;
    if (entries.empty())
        return;
    Entry *victim = &entries[0];
    for (auto &e : entries) {
        if (e.valid && e.prefix == prefix && e.generation == generation) {
            e.node = node;
            e.standIn.reset();
            e.lastUse = tick_;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->prefix = prefix;
    victim->generation = generation;
    victim->node = node;
    victim->standIn.reset();
    victim->lastUse = tick_;
    lc.sync(static_cast<size_t>(victim - entries.data()));
}

void
MmuCache::invalidateAll()
{
    for (unsigned level = 2; level <= kLevels; ++level) {
        LevelCache &lc = levels_[level];
        for (size_t i = 0; i < lc.entries.size(); ++i) {
            lc.entries[i].valid = false;
            lc.sync(i);
        }
    }
}

void
MmuCache::invalidate(Vaddr va)
{
    for (unsigned level = 2; level <= kLevels; ++level) {
        uint64_t prefix = prefixOf(va, level);
        LevelCache &lc = levels_[level];
        for (size_t i = 0; i < lc.entries.size(); ++i) {
            Entry &e = lc.entries[i];
            if (e.valid && e.prefix == prefix) {
                e.valid = false;
                lc.sync(i);
            }
        }
    }
}

void
MmuCache::onNodeReleased(const PageTableNode *node)
{
    // The released node holds no present PTEs, so a walk that hits an
    // entry pointing at it reads one all-zero slot at the node's frame
    // and faults.  An owned empty copy with the same framePfn serves
    // exactly those bytes and addresses; tags, generation, and LRU
    // state are untouched, keeping hit/miss behavior identical to the
    // dense table.  Bounded: at most one stand-in per cache entry.
    for (unsigned level = 2; level <= kLevels; ++level) {
        for (Entry &e : levels_[level].entries) {
            if (e.valid && e.node == node) {
                auto copy = std::make_unique<PageTableNode>();
                copy->framePfn = node->framePfn;
                e.node = copy.get();
                e.standIn = std::move(copy);
            }
        }
    }
}

void
MmuCache::onNodeMaterialized(PageTableNode *node)
{
    // Match by frame, via the owned stand-in only (e.node may dangle
    // for generation-stale entries; the stand-in is always safe to
    // read).  Frames are unique while allocated, so a match is the
    // released node this one resurrects.
    for (unsigned level = 2; level <= kLevels; ++level) {
        for (Entry &e : levels_[level].entries) {
            if (e.standIn && e.standIn->framePfn == node->framePfn) {
                e.node = node;
                e.standIn.reset();
            }
        }
    }
}

} // namespace tps::vm
