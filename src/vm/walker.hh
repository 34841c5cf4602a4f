/**
 * @file
 * Hardware page-table walker model.
 *
 * The walker traverses the radix page table counting the memory
 * references a hardware walker would issue, consulting the split MMU
 * caches to skip upper levels, performing the one extra access demanded
 * by pointer-mode alias PTEs (paper Fig. 6), and optionally modeling
 * five-level tables and two-dimensional (virtualized) walks where every
 * guest table reference itself requires a nested translation.
 */

#ifndef TPS_VM_WALKER_HH
#define TPS_VM_WALKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "vm/addr.hh"
#include "vm/mmu_cache.hh"
#include "vm/page_table.hh"
#include "vm/pte.hh"

namespace tps::obs {
class EventTrace;
} // namespace tps::obs

namespace tps::vm {

/** Walker configuration knobs. */
struct WalkerConfig
{
    bool fiveLevel = false;     //!< add a 5th top level to full walks
    bool virtualized = false;   //!< two-dimensional (nested) page walks
    unsigned nestedTlbEntries = 16;  //!< nested-translation cache
                                     //!< (per guest table frame)
    unsigned nestedWalkAccesses = 4; //!< cost of a nested walk in accesses
};

/** Result of one page walk. */
struct WalkResult
{
    bool fault = false;         //!< translation not present
    LeafInfo leaf;              //!< decoded mapping (valid unless fault)
    Vaddr pageBase = 0;         //!< VA of first byte of the hit page
    Paddr truePtePaddr = 0;     //!< PA of the true leaf PTE (A/D updates)
    unsigned accesses = 0;      //!< page-walk memory references issued
    unsigned aliasExtra = 0;    //!< accesses that were alias re-reads
    unsigned nestedAccesses = 0; //!< nested-dimension references (2-D mode)
    unsigned hitLevel = 0;      //!< MMU-cache hit depth (0 = from root)

    /** Addresses of the guest-dimension references, for cache charging. */
    std::array<Paddr, 8> refs{};
    unsigned nrefs = 0;
};

/** Aggregate walker statistics. */
struct WalkerStats
{
    uint64_t walks = 0;
    uint64_t faults = 0;         //!< walks that found no translation
    uint64_t accesses = 0;       //!< total memory references (guest dim)
    uint64_t aliasExtra = 0;     //!< alias-PTE re-read references
    uint64_t nestedAccesses = 0; //!< nested-dimension refs (virtualized)
    uint64_t nestedTlbHits = 0;  //!< nested-translation cache hits
    uint64_t nestedTlbMisses = 0; //!< nested-translation cache misses
};

/** The walker. */
class PageWalker
{
  public:
    /**
     * @param table  Page table to walk.
     * @param cache  MMU caches to consult/fill, or nullptr for none.
     * @param cfg    Feature knobs.
     */
    PageWalker(PageTable &table, MmuCache *cache,
               WalkerConfig cfg = WalkerConfig{});

    /** Perform one walk for @p va. */
    WalkResult walk(Vaddr va);

    const WalkerStats &stats() const { return stats_; }
    const WalkerConfig &config() const { return cfg_; }

    /** Reset statistics (not the nested TLB). */
    void clearStats() { stats_ = WalkerStats{}; }


    /** Record a Walk event per walk() into @p trace (nullptr = off). */
    void setEventTrace(obs::EventTrace *trace) { trace_ = trace; }

  private:
    /** Charge the nested cost of touching guest-physical @p pa. */
    unsigned nestedCost(Paddr pa);

    PageTable &table_;
    MmuCache *cache_;
    WalkerConfig cfg_;
    WalkerStats stats_;
    obs::EventTrace *trace_ = nullptr;

    /** Tiny LRU nested-translation cache keyed by 2 MB guest frame. */
    struct NestedEntry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;
    };
    std::vector<NestedEntry> nested_;
    uint64_t nestedTick_ = 0;
};

} // namespace tps::vm

#endif // TPS_VM_WALKER_HH
