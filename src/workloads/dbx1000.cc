#include "workloads/dbx1000.hh"

namespace tps::workloads {

namespace {

constexpr unsigned kOpsPerTxn = 4;
constexpr unsigned kAccessesPerOp = 4;  // bucket + node + 2 tuple words

/** Cheap integer hash (splitmix-style) for key -> bucket placement. */
constexpr uint64_t
hashKey(uint64_t k)
{
    k += 0x9e3779b97f4a7c15ull;
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
    return k ^ (k >> 31);
}

} // namespace

Dbx1000::Dbx1000(Dbx1000Config cfg)
    : WorkloadBase(
          WorkloadInfo{
              "dbx1000",
              "YCSB-like main-memory OLTP kernel over a hash index",
              cfg.rows * (cfg.tupleBytes + 32) + (cfg.rows / 2) * 8,
              cfg.txns * kOpsPerTxn * kAccessesPerOp,
              6,
          },
          cfg.seed),
      cfg_(cfg)
{
    buckets_ = cfg_.rows / 2;
}

void
Dbx1000::setup(sim::AllocApi &api)
{
    zipf_ = std::make_unique<ZipfSampler>(cfg_.rows, cfg_.zipfTheta);
    indexBase_ = api.mmap(buckets_ * 8);
    nodeBase_ = api.mmap(cfg_.rows * 32);
    tupleBase_ = api.mmap(cfg_.rows * cfg_.tupleBytes);
    registerInit(indexBase_, buckets_ * 8);
    registerInit(nodeBase_, cfg_.rows * 32);
    registerInit(tupleBase_, cfg_.rows * cfg_.tupleBytes);
}

void
Dbx1000::refillPending()
{
    for (unsigned op = 0; op < kOpsPerTxn; ++op) {
        uint64_t key = zipf_->sample(rng_);
        bool write = rng_.chance(cfg_.writeFraction);
        uint64_t bucket = hashKey(key) % buckets_;

        // Bucket head read, then the dependent chain-node read.
        pending_.push_back({indexBase_ + bucket * 8, false, false});
        pending_.push_back({nodeBase_ + key * 32, false, true});
        // Tuple access: header word plus a payload word.
        vm::Vaddr row = tupleBase_ + key * cfg_.tupleBytes;
        pending_.push_back({row, false, true});
        pending_.push_back(
            {row + 8 * (1 + (key % ((cfg_.tupleBytes / 8) - 1))), write,
             false});
    }
}

} // namespace tps::workloads
