/**
 * @file
 * Paging-structure (MMU) caches.
 *
 * Intel-style split design: one small fully associative LRU cache per
 * upper page-table level.  The level-L cache maps the virtual-address
 * index prefix covering levels kLevels..L to the node holding level-(L-1)
 * entries, letting the walker skip the memory accesses above a hit.  A
 * hit in the PDE cache (L=2) reduces a 4-access walk to a single PTE
 * access.
 *
 * Entries carry the owning page table's generation number; structural
 * changes to the table (subtree frees) bump the generation, turning stale
 * entries into misses without dangling-pointer risk.
 */

#ifndef TPS_VM_MMU_CACHE_HH
#define TPS_VM_MMU_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "vm/addr.hh"

namespace tps::vm {

struct PageTableNode;

/** Geometry of the split MMU caches (entries per cached level). */
struct MmuCacheConfig
{
    unsigned pml4Entries = 4;    //!< level-4 cache
    unsigned pdpteEntries = 16;  //!< level-3 cache
    unsigned pdeEntries = 32;    //!< level-2 cache
};

/**
 * The split paging-structure cache set.
 *
 * Cached levels are kLevels down to 2 (there is no cache for leaf PTEs;
 * that is the TLB's job).
 */
class MmuCache
{
  public:
    explicit MmuCache(const MmuCacheConfig &cfg = MmuCacheConfig{});

    /**
     * Find the deepest usable cached node for @p va.
     *
     * @param va          Virtual address being walked.
     * @param generation  Current page-table generation.
     * @param[out] node   Node holding level-(L-1) entries on a hit.
     * @return the level L of the hitting cache, or 0 on full miss.
     */
    unsigned lookup(Vaddr va, uint64_t generation,
                    PageTableNode *&node);

    /**
     * Install the node discovered while walking level @p level of @p va
     * (the child reached from that level's entry).
     */
    void fill(Vaddr va, unsigned level, uint64_t generation,
              PageTableNode *node);

    /** Drop every entry (coarse shootdown). */
    void invalidateAll();

    /** Drop entries whose prefix covers @p va (INVLPG-style). */
    void invalidate(Vaddr va);

    /**
     * The sparse page table is about to release @p node's host object
     * (its PTEs are all zero).  Entries pointing at it are repointed to
     * an owned empty stand-in with the same frame, so later hits read
     * the very bytes the dense table would serve -- no tag or LRU
     * state moves.
     */
    void onNodeReleased(const PageTableNode *node);

    /**
     * The sparse page table rematerialized a released node as a fresh
     * host object (same frame).  Entries parked on the matching
     * stand-in are repointed to @p node so later walks read the PTEs
     * the table is about to install, as a dense table's entries
     * (whose node object never changed identity) would.
     */
    void onNodeMaterialized(PageTableNode *node);

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t prefix = 0;
        uint64_t generation = 0;
        uint64_t lastUse = 0;
        PageTableNode *node = nullptr;
        //! Owned empty stand-in for a released node (see
        //! onNodeReleased); at most one per entry, replaced on fill.
        std::unique_ptr<PageTableNode> standIn;
    };

    /** The index-prefix tag of @p va for the level-@p level cache. */
    static uint64_t prefixOf(Vaddr va, unsigned level);

    /** Prefix no VA can produce (index prefixes use < 52 bits). */
    static constexpr uint64_t kInvalidPrefix = ~0ull;

    /** Cache for one level. */
    struct LevelCache
    {
        std::vector<Entry> entries;
        // SoA shadow of (prefix, generation) for the hot probe loop;
        // invalid slots carry kInvalidPrefix so no valid bit is read.
        std::vector<uint64_t> prefixes;
        std::vector<uint64_t> gens;

        void
        resize(size_t n)
        {
            entries.resize(n);
            prefixes.assign(n, kInvalidPrefix);
            gens.assign(n, 0);
        }

        /** Mirror entries[i]'s tag state into the packed arrays. */
        void
        sync(size_t i)
        {
            const Entry &e = entries[i];
            prefixes[i] = e.valid ? e.prefix : kInvalidPrefix;
            gens[i] = e.generation;
        }
    };

    //! Caches indexed by level (2..kLevels); slots 0/1 unused.
    LevelCache levels_[kLevels + 1];
    uint64_t tick_ = 0;
};

} // namespace tps::vm

#endif // TPS_VM_MMU_CACHE_HH
