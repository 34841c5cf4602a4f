/**
 * @file
 * Workload interface: a generator that performs mmap/munmap requests
 * through the simulated OS and emits the stream of memory accesses the
 * engine translates -- exactly the two event kinds the paper's PIN tool
 * traced from real benchmarks.
 */

#ifndef TPS_WORKLOADS_WORKLOAD_HH
#define TPS_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/access.hh"
#include "util/rng.hh"

namespace tps::workloads {

/** Static description of a workload. */
struct WorkloadInfo
{
    std::string name;
    std::string description;
    uint64_t footprintBytes = 0;   //!< approximate virtual footprint
    uint64_t defaultAccesses = 0;  //!< accesses emitted per run
    unsigned instsPerAccess = 3;   //!< non-memory instructions between
                                   //!< accesses (for MPKI / timing)
};

/** The generator interface. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Static metadata. */
    virtual const WorkloadInfo &info() const = 0;

    /** Perform the allocation phase (mmap calls) through @p api. */
    virtual void setup(sim::AllocApi &api) = 0;

    /**
     * Produce the next access.
     * @return false when the run is complete.
     */
    virtual bool next(sim::MemAccess &out) = 0;

    /**
     * Produce up to @p max accesses into @p out and return the count.
     * A short batch is not the end of the run: only a return of zero
     * means the generator is exhausted.  The default implementation
     * drains next(), so any workload is batch-drivable; generators
     * whose batching provably preserves the per-access interleaving
     * advertise it via batchable().
     */
    virtual size_t
    nextBatch(sim::MemAccess *out, size_t max)
    {
        size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * True when nextBatch() emits the exact access/allocation
     * interleaving of repeated next() calls, letting the engine pull
     * it in chunks of many accesses instead of one.
     */
    virtual bool batchable() const { return false; }

    /**
     * Number of leading accesses that belong to the initialization
     * phase (the program writing its data structures before the
     * measured kernel).  The engine clears statistics after these so
     * figures report steady-state behaviour, as a full-run trace would.
     */
    virtual uint64_t warmupAccesses() const { return 0; }
};

/**
 * Convenience base holding the info block, a seeded RNG, and the
 * initialization-sweep machinery: setup() registers each arena with
 * registerInit(), and next() first drains one sequential write per
 * base page across all registered arenas (the program "initializing
 * its memory"), which demand-faults everything in and lets the paging
 * policy perform its promotions before measurement starts.
 */
class WorkloadBase : public Workload
{
  public:
    const WorkloadInfo &info() const override { return info_; }

    uint64_t
    warmupAccesses() const override
    {
        uint64_t pages = 0;
        for (const auto &[base, bytes] : initRegions_)
            pages += (bytes + 4095) / 4096;
        return pages;
    }

    /**
     * Generic pattern driver: drain the init sweep, then serve from the
     * pending buffer, refilling via refillPending() whenever it runs
     * dry.
     */
    bool
    next(sim::MemAccess &out) override
    {
        if (emitInit(out))
            return true;
        if (emitted_ >= info_.defaultAccesses)
            return false;
        while (pendingPos_ >= pending_.size()) {
            pending_.clear();
            pendingPos_ = 0;
            refillPending();
        }
        out = pending_[pendingPos_++];
        ++emitted_;
        return true;
    }

    /**
     * Batched driver, bit-identical to repeated next() calls: the
     * pending buffer is refilled only at batch starts, which is exactly
     * when the per-access path would refill (the buffer only empties
     * after its last access has been consumed), so generators that
     * allocate during refills (SpecLike's MixedAlloc mmap/munmap churn)
     * see the identical interleaving of allocation calls and translated
     * accesses either way.  A batch never mixes init-sweep and pattern
     * accesses, and a dry buffer ends the batch early.
     */
    size_t
    nextBatch(sim::MemAccess *out, size_t max) override
    {
        size_t n = 0;
        while (n < max && emitInit(out[n]))
            ++n;
        if (n > 0)
            return n;
        if (emitted_ >= info_.defaultAccesses)
            return 0;
        while (pendingPos_ >= pending_.size()) {
            pending_.clear();
            pendingPos_ = 0;
            refillPending();
        }
        while (n < max && emitted_ < info_.defaultAccesses &&
               pendingPos_ < pending_.size()) {
            out[n++] = pending_[pendingPos_++];
            ++emitted_;
        }
        return n;
    }

    /**
     * next() and nextBatch() are driven from the same refillPending()
     * stream above, so batching is always exact.  A subclass that
     * overrides next() directly must also override this back to false.
     */
    bool batchable() const override { return true; }

  protected:
    WorkloadBase(WorkloadInfo info, uint64_t seed)
        : info_(std::move(info)), rng_(seed, 0x9e3779b9)
    {}

    /** Declare [base, base+bytes) for the initialization sweep. */
    void
    registerInit(vm::Vaddr base, uint64_t bytes)
    {
        initRegions_.emplace_back(base, bytes);
    }

    /** Emit the next init access; false once the sweep is complete. */
    bool
    emitInit(sim::MemAccess &out)
    {
        while (initRegion_ < initRegions_.size()) {
            auto [base, bytes] = initRegions_[initRegion_];
            if (initOffset_ < bytes) {
                out.va = base + initOffset_;
                out.write = true;
                out.dependsOnPrev = false;
                initOffset_ += 4096;
                return true;
            }
            ++initRegion_;
            initOffset_ = 0;
        }
        return false;
    }

    /**
     * Append the next pattern burst (>= 1 access) to pending_.  Called
     * with the buffer already cleared; the RNG draws and any AllocApi
     * calls made here happen at the same stream positions whether the
     * workload is driven by next() or nextBatch().
     */
    virtual void refillPending() {}

    WorkloadInfo info_;
    Pcg32 rng_;
    uint64_t emitted_ = 0;   //!< pattern accesses produced so far
    std::vector<sim::MemAccess> pending_;  //!< current pattern burst
    size_t pendingPos_ = 0;  //!< consumption cursor into pending_

  private:
    std::vector<std::pair<vm::Vaddr, uint64_t>> initRegions_;
    size_t initRegion_ = 0;
    uint64_t initOffset_ = 0;
};

} // namespace tps::workloads

#endif // TPS_WORKLOADS_WORKLOAD_HH
