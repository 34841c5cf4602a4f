#include "workloads/graph500.hh"

#include <algorithm>
#include <thread>
#include <tuple>

#include "util/logging.hh"
#include "util/memo.hh"
#include "util/task_pool.hh"

namespace tps::workloads {

namespace {

/**
 * Quadrant bounds as thresholds on the raw 64-bit draw r.  uniform()
 * is (r >> 11) * 2^-53, so when p * 2^53 is an integer P (it is for
 * the Graph500 reference quadrants a = .57, b = c = .19 as doubles),
 * uniform() < p exactly when r < P << 11.  The draws, and so the
 * graph, are bit-identical to comparing uniform() against a, a + b
 * and a + b + c.
 */
constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
constexpr double kTwo53 = 0x1p53;

constexpr bool
isWhole(double x)
{
    return double(uint64_t(x)) == x;
}

static_assert(isWhole(kA * kTwo53) && isWhole((kA + kB) * kTwo53) &&
                  isWhole((kA + kB + kC) * kTwo53),
              "R-MAT quadrant bounds must be exact multiples of 2^-53");

constexpr uint64_t kTa = uint64_t(kA * kTwo53) << 11;
constexpr uint64_t kTab = uint64_t((kA + kB) * kTwo53) << 11;
constexpr uint64_t kTabc = uint64_t((kA + kB + kC) * kTwo53) << 11;

/**
 * One deterministic R-MAT edge (Graph500 reference quadrants), one
 * 64-bit draw per level.  Quadrant order is (0,0), (0,1), (1,0),
 * (1,1), so the source bit is r >= T_ab and the destination bit is
 * set in the second and fourth quadrants; comparing against the
 * thresholds instead of branching avoids a mispredicted ladder per
 * level.
 */
std::pair<uint32_t, uint32_t>
rmatEdge(Pcg32 &gen, unsigned scale)
{
    uint64_t src = 0, dst = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
        uint64_t r = gen.next64();
        uint64_t ge_a = r >= kTa, ge_ab = r >= kTab, ge_abc = r >= kTabc;
        src = (src << 1) | ge_ab;
        dst = (dst << 1) | (ge_a ^ ge_ab ^ ge_abc);
    }
    return {static_cast<uint32_t>(src), static_cast<uint32_t>(dst)};
}

/**
 * Fewest edges per block in buildCsr()'s default split.  A block this
 * size draws for a few ms per pass, so starting and joining its thread
 * costs little next to it; smaller graphs, such as the scale-12 test
 * graphs, take one or two blocks.
 */
constexpr uint64_t kMinBlockEdges = 1ull << 15;

/**
 * Run block(t) for every t in [0, blocks): block 0 on the calling
 * thread, every other block on a thread of its own, or on the caller
 * when that thread cannot start.  Returns once every block is done.
 */
template <typename Block>
void
forEachBlock(unsigned blocks, const Block &block)
{
    std::vector<std::jthread> threads;
    threads.reserve(blocks);
    for (unsigned t = 1; t < blocks; ++t) {
        try {
            threads.emplace_back(block, t);
        } catch (...) {
            block(t);
        }
    }
    block(0);
}

} // namespace

Graph500::Graph500(Graph500Config cfg)
    : WorkloadBase(
          WorkloadInfo{
              "graph500",
              "BFS over a Kronecker (R-MAT) graph in CSR form",
              // 8-byte adjacency + xadj + pred arrays.
              ((1ull << cfg.scale) * cfg.edgeFactor * 2) * 8 +
                  (1ull << cfg.scale) * 16,
              cfg.accesses + cfg.warmupTraversal,
              4,
          },
          cfg.seed),
      cfg_(cfg)
{
}

std::shared_ptr<const Graph500::Csr>
Graph500::buildCsr(unsigned scale, unsigned edgeFactor, uint64_t seed,
                   unsigned threads)
{
    uint64_t n = 1ull << scale;
    uint64_t m = n * edgeFactor;
    if (threads == 0)
        threads = static_cast<unsigned>(
            std::clamp<uint64_t>(m / kMinBlockEdges, 1,
                                 util::TaskPool::hardwareThreads()));

    // Two passes over the same deterministic edge stream avoid
    // materializing the edge list: pass 1 counts degrees, pass 2
    // scatters into the CSR (each undirected edge appears both ways).
    // Thread t takes the contiguous edge block [first(t), first(t+1))
    // in both passes; every edge draws 2 * scale next() outputs, so
    // its generator jumps ahead past the edges before its block.
    auto first = [&](unsigned t) { return m * t / threads; };
    auto blockGen = [&](unsigned t) {
        Pcg32 gen(seed, 0x6006);
        gen.advance(first(t) * 2 * scale);
        return gen;
    };
    auto csr = std::make_shared<Graph500::Csr>();
    csr->xadj.assign(n + 1, 0);
    std::vector<std::vector<uint32_t>> count(
        threads, std::vector<uint32_t>(n, 0));
    forEachBlock(threads, [&](unsigned t) {
        Pcg32 gen = blockGen(t);
        uint32_t *degree = count[t].data();
        for (uint64_t e = first(t), end = first(t + 1); e < end; ++e) {
            auto [s, d] = rmatEdge(gen, scale);
            ++degree[s];
            ++degree[d];
        }
    });
    // Sum the blocks' degrees into xadj, and turn each block's count
    // into its first slot inside the vertex's adjacency: the blocks
    // before it fill the slots before, as the serial stream would.
    for (uint64_t v = 0; v < n; ++v) {
        uint32_t degree = 0;
        for (std::vector<uint32_t> &block : count) {
            uint32_t block_degree = block[v];
            block[v] = degree;
            degree += block_degree;
        }
        csr->xadj[v + 1] = csr->xadj[v] + degree;
    }
    csr->adj.resize(csr->xadj.back());
    forEachBlock(threads, [&](unsigned t) {
        Pcg32 gen = blockGen(t);
        const uint64_t *xadj = csr->xadj.data();
        uint32_t *adj = csr->adj.data();
        uint32_t *slot = count[t].data();
        for (uint64_t e = first(t), end = first(t + 1); e < end; ++e) {
            auto [s, d] = rmatEdge(gen, scale);
            adj[xadj[s] + slot[s]++] = d;
            adj[xadj[d] + slot[d]++] = s;
        }
    });
    return csr;
}

void
Graph500::buildGraph()
{
    n_ = 1ull << cfg_.scale;
    // Host-side graphs, keyed by (scale, edgeFactor, seed).  A build
    // throws only std::bad_alloc; the memo then drops the key.
    static util::Memo<std::tuple<unsigned, unsigned, uint64_t>,
                      std::shared_ptr<const Csr>>
        graphs;
    csr_ = graphs.get(
        std::make_tuple(cfg_.scale, cfg_.edgeFactor, cfg_.seed), [&] {
            return buildCsr(cfg_.scale, cfg_.edgeFactor, cfg_.seed);
        });
    visited_.assign(n_, false);
}

void
Graph500::setup(sim::AllocApi &api)
{
    buildGraph();
    xadjBase_ = api.mmap((n_ + 1) * 8);
    adjBase_ = api.mmap(csr_->adj.size() * 8);
    visitedBase_ = api.mmap(n_ * 8);
    registerInit(xadjBase_, (n_ + 1) * 8);
    registerInit(adjBase_, csr_->adj.size() * 8);
    registerInit(visitedBase_, n_ * 8);
    startBfs();
}

void
Graph500::startBfs()
{
    std::fill(visited_.begin(), visited_.end(), false);
    uint32_t root = static_cast<uint32_t>(rng_.below64(n_));
    visited_[root] = true;
    frontier_.assign(1, root);
    nextFrontier_.clear();
    frontierPos_ = 0;
}

bool
Graph500::step()
{
    if (frontierPos_ >= frontier_.size()) {
        if (nextFrontier_.empty()) {
            startBfs();
            return true;
        }
        frontier_.swap(nextFrontier_);
        nextFrontier_.clear();
        frontierPos_ = 0;
    }
    uint32_t u = frontier_[frontierPos_++];

    // Read xadj[u]: the offsets bounding u's adjacency.
    pending_.push_back({xadjBase_ + u * 8ull, false, true});
    uint64_t begin = csr_->xadj[u];
    uint64_t end = csr_->xadj[u + 1];
    for (uint64_t off = begin; off < end; ++off) {
        uint32_t v = csr_->adj[off];
        // Sequential scan of the adjacency list...
        pending_.push_back({adjBase_ + off * 8ull, false, false});
        // ...then the data-dependent visit check (random vertex).
        pending_.push_back({visitedBase_ + v * 8ull, false, true});
        if (!visited_[v]) {
            visited_[v] = true;
            nextFrontier_.push_back(v);
            pending_.push_back({visitedBase_ + v * 8ull, true, true});
        }
    }
    return true;
}

} // namespace tps::workloads
