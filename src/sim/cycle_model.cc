#include "sim/cycle_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tps::sim {

CycleModel::CycleModel(const CycleModelConfig &cfg)
    : cfg_(cfg)
{
    tps_assert(cfg_.width > 0 && cfg_.maxInflight > 0);
    tps_assert(cfg_.instsPerAccess > 0);
    robWindowOps_ =
        std::max(1u, cfg_.robSize / (cfg_.instsPerAccess + 1));
    inflightRing_.assign(cfg_.maxInflight, 0);
    robRing_.assign(robWindowOps_, 0);
}

uint64_t
CycleModel::cycles() const
{
    return std::max(lastCompletion_, instructions_ / cfg_.width);
}

void
CycleModel::reset()
{
    instructions_ = 0;
    inflightIdx_ = 0;
    robIdx_ = 0;
    prevCompletion_ = 0;
    lastCompletion_ = 0;
    std::fill(inflightRing_.begin(), inflightRing_.end(), 0);
    std::fill(robRing_.begin(), robRing_.end(), 0);
}

} // namespace tps::sim
