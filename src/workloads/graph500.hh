/**
 * @file
 * Graph500-style workload: breadth-first search over a synthetic
 * Kronecker (R-MAT) graph in CSR form.  The generator builds the graph
 * (host side) at setup, lays the CSR arrays out in the simulated
 * address space (8-byte elements, as in the Graph500 reference), and
 * emits the BFS access stream: sequential adjacency scans interleaved
 * with data-dependent visits to random vertices.
 *
 * Graph construction is expensive, so the host-side CSR is memoized
 * per (scale, edgeFactor, seed) and shared between instances; the BFS
 * itself remains per-instance and deterministic.
 * Every cell of one workload, scale and footprint shares one graph:
 * core::runSeed leaves the design and the machine-side options out of
 * the seed, so the THP, TPS, CoLT and RMM cells of a figure row, and
 * the perfect-TLB cells of a Fig. 13/14 speedup pipeline, traverse the
 * same CSR (an SMT competitor, seeded apart, builds its own).  The
 * memo is a util::Memo: it builds each key's graph once per process,
 * concurrent setups of the same key wait for that one build, and
 * setups of different keys build concurrently.
 *
 * One build runs on every host core (buildCsr()): the edge stream is
 * cut into contiguous blocks, one per thread, and each thread starts
 * its generator at its block by PCG jump-ahead.  Per-thread degree
 * counts become each thread's scatter cursors, so the CSR is the
 * serial build's, byte for byte, whatever the thread count.  Every
 * array is allocated on the calling thread before a pass's threads
 * start, and a block whose thread cannot start runs on the caller, so
 * a build throws only std::bad_alloc, and only from the caller.  A
 * build that throws fails every waiting setup and leaves no entry, so
 * a later setup rebuilds.
 */

#ifndef TPS_WORKLOADS_GRAPH500_HH
#define TPS_WORKLOADS_GRAPH500_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/workload.hh"

namespace tps::workloads {

/** Graph500 configuration. */
struct Graph500Config
{
    unsigned scale = 23;        //!< 2^scale vertices
    unsigned edgeFactor = 8;    //!< edges per vertex
    uint64_t accesses = 1500000;
    /**
     * Traversal accesses treated as warmup before measurement: BFS's
     * early levels ride the R-MAT hub vertices (high locality); the
     * representative, TLB-hostile phase is the peak frontier, where
     * visited-checks scatter across the whole vertex range.
     */
    uint64_t warmupTraversal = 6000000;
    uint64_t seed = 7;
};

/** The BFS generator. */
class Graph500 : public WorkloadBase
{
  public:
    /** Host-side compressed sparse row graph. */
    struct Csr
    {
        std::vector<uint64_t> xadj;
        std::vector<uint32_t> adj;
    };

    explicit Graph500(Graph500Config cfg = Graph500Config{});

    /**
     * Build the R-MAT CSR of 2^@p scale vertices and
     * 2^@p scale * @p edgeFactor undirected edges on @p threads host
     * threads; 0 takes one per host core, with no block under 2^15
     * edges.  The result does not depend on @p threads.
     */
    static std::shared_ptr<const Csr> buildCsr(unsigned scale,
                                               unsigned edgeFactor,
                                               uint64_t seed,
                                               unsigned threads = 0);

    void setup(sim::AllocApi &api) override;

    uint64_t
    warmupAccesses() const override
    {
        return WorkloadBase::warmupAccesses() + cfg_.warmupTraversal;
    }

    /** Vertex count (tests). */
    uint64_t vertices() const { return n_; }
    /** The host-side graph setup() took from the memo (tests). */
    const Csr *csr() const { return csr_.get(); }
    /** Directed edge count (tests). */
    uint64_t
    edges() const
    {
        return csr_ ? csr_->xadj.back() : 0;
    }

  private:
    /** Build (or fetch the memoized) R-MAT CSR. */
    void buildGraph();

    /** Start a new BFS from a random root. */
    void startBfs();

    /** Advance the BFS one vertex; pushes accesses to pending_. */
    bool step();

    void refillPending() override { step(); }

    Graph500Config cfg_;
    uint64_t n_ = 0;

    std::shared_ptr<const Csr> csr_;
    std::vector<bool> visited_;
    std::vector<uint32_t> frontier_;
    std::vector<uint32_t> nextFrontier_;
    size_t frontierPos_ = 0;

    // Simulated layout (8-byte elements throughout).
    vm::Vaddr xadjBase_ = 0;
    vm::Vaddr adjBase_ = 0;
    vm::Vaddr visitedBase_ = 0;
};

} // namespace tps::workloads

#endif // TPS_WORKLOADS_GRAPH500_HH
