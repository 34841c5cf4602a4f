/**
 * @file
 * Graph500-style workload: breadth-first search over a synthetic
 * Kronecker (R-MAT) graph in CSR form.  The generator builds the graph
 * (host side) at setup, lays the CSR arrays out in the simulated
 * address space (8-byte elements, as in the Graph500 reference), and
 * emits the BFS access stream: sequential adjacency scans interleaved
 * with data-dependent visits to random vertices.
 *
 * Because graph construction is expensive and every figure runs the
 * benchmark under several designs, the host-side CSR is memoized per
 * (scale, edgeFactor, seed) and shared between instances; the BFS
 * itself remains per-instance and deterministic.  The memo builds each
 * key's graph once per process, outside its lock: concurrent setups of
 * the same key wait for that one build, setups of different keys build
 * concurrently.  A build that throws (only std::bad_alloc can) fails
 * every waiting setup and leaves no entry, so a later setup rebuilds.
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

    void setup(sim::AllocApi &api) override;

    uint64_t
    warmupAccesses() const override
    {
        return WorkloadBase::warmupAccesses() + cfg_.warmupTraversal;
    }

    /** Vertex count (tests). */
    uint64_t vertices() const { return n_; }
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
