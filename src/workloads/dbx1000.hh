/**
 * @file
 * DBx1000-style workload: a YCSB-like main-memory OLTP key-value
 * kernel.  Zipf-distributed keys probe a hash index (bucket array +
 * short chains), then read or update the tuple -- the paper's database
 * representative: pointer-dependent probes over a multi-hundred-MB
 * footprint with skewed reuse.
 */

#ifndef TPS_WORKLOADS_DBX1000_HH
#define TPS_WORKLOADS_DBX1000_HH

#include <memory>
#include <vector>

#include "workloads/workload.hh"

namespace tps::workloads {

/** DBx1000 configuration. */
struct Dbx1000Config
{
    uint64_t rows = 1ull << 24;   //!< tuples
    unsigned tupleBytes = 192;
    double zipfTheta = 0.6;       //!< YCSB default skew
    double writeFraction = 0.5;
    uint64_t txns = 150000;       //!< transactions (4 ops each)
    uint64_t seed = 23;
};

/** The OLTP generator. */
class Dbx1000 : public WorkloadBase
{
  public:
    explicit Dbx1000(Dbx1000Config cfg = Dbx1000Config{});

    void setup(sim::AllocApi &api) override;

  private:
    /** One transaction: kOpsPerTxn index probes + tuple accesses. */
    void refillPending() override;

    Dbx1000Config cfg_;
    //! Built at setup; its zeta sum (up to 2^20 pow() calls) is
    //! summed once per process for each (rows, zipfTheta).
    std::unique_ptr<ZipfSampler> zipf_;
    uint64_t buckets_ = 0;

    vm::Vaddr indexBase_ = 0;  //!< bucket heads (8 B each)
    vm::Vaddr nodeBase_ = 0;   //!< chain nodes (32 B each)
    vm::Vaddr tupleBase_ = 0;  //!< row storage
};

} // namespace tps::workloads

#endif // TPS_WORKLOADS_DBX1000_HH
