/**
 * @file
 * Graph500 access-stream fingerprints for the test binaries.
 *
 * A Graph500 instance's BFS stream reads every adjacency entry of every
 * vertex it visits, so a hash of its first accesses pins the host-side
 * CSR (xadj and adj) through the stream.  The pins below
 * were recorded with the floating-point R-MAT quadrant ladder, so they
 * also hold the integer-threshold draw to the same graphs.
 */

#ifndef TPS_TESTS_GRAPH500_STREAM_HH
#define TPS_TESTS_GRAPH500_STREAM_HH

#include <cstdint>

#include "fake_alloc.hh"
#include "util/rng.hh"
#include "workloads/graph500.hh"

namespace tps::test {

/**
 * Accesses hashed per instance: the init sweep plus the first BFS.  At
 * scale 12 and both pinned edge factors, that BFS reads all but a
 * handful of the adjacency entries (those in components it does not
 * reach).
 */
constexpr uint64_t kGraph500StreamAccesses = 300000;

/** Hash of the first @p count accesses of a freshly set-up Graph500. */
inline uint64_t
graph500StreamHash(const workloads::Graph500Config &cfg,
                   uint64_t count = kGraph500StreamAccesses)
{
    workloads::Graph500 g(cfg);
    FakeAlloc alloc;
    g.setup(alloc);
    uint64_t h = 0;
    sim::MemAccess acc;
    for (uint64_t i = 0; i < count && g.next(acc); ++i) {
        h = hashCombine(h, acc.va);
        h = hashCombine(h, (uint64_t(acc.write) << 1) |
                               uint64_t(acc.dependsOnPrev));
    }
    return h;
}

/** One pinned graph: its memo key and its stream hash. */
struct Graph500StreamPin
{
    unsigned edgeFactor;
    uint64_t seed;
    uint64_t hash;
};

/** Scale of every pinned graph: 2^12 vertices. */
constexpr unsigned kGraph500PinScale = 12;

constexpr Graph500StreamPin kGraph500StreamPins[] = {
    {8, 7, 0xe16eaac37d3fa8e9ull},
    {8, 0x1234567890abcdefull, 0x1e4ab0b52d2939a7ull},
    {16, 7, 0x08ad0293879314bfull},
    {16, 0x1234567890abcdefull, 0xa076b4211b64a0faull},
};

/** The Graph500Config of @p pin. */
inline workloads::Graph500Config
pinConfig(const Graph500StreamPin &pin)
{
    workloads::Graph500Config cfg;
    cfg.scale = kGraph500PinScale;
    cfg.edgeFactor = pin.edgeFactor;
    cfg.seed = pin.seed;
    return cfg;
}

} // namespace tps::test

#endif // TPS_TESTS_GRAPH500_STREAM_HH
