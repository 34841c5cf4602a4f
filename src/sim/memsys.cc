#include "sim/memsys.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace tps::sim {

void
MemSys::Level::init(uint64_t bytes, unsigned w, unsigned line)
{
    ways = w;
    uint64_t lines = bytes / line;
    tps_assert(lines % ways == 0);
    sets = static_cast<unsigned>(lines / ways);
    tps_assert(isPowerOfTwo(sets));
    setShift = log2Floor(sets);
    tags.assign(lines, kInvalidTag);
}

MemSys::MemSys(const MemSysConfig &cfg)
    : cfg_(cfg)
{
    l1_.init(cfg_.l1Bytes, cfg_.l1Ways, cfg_.lineBytes);
    llc_.init(cfg_.llcBytes, cfg_.llcWays, cfg_.lineBytes);
    lineIsPow2_ = isPowerOfTwo(uint64_t(cfg_.lineBytes));
    lineShift_ = lineIsPow2_ ? log2Floor(cfg_.lineBytes) : 0;
}

} // namespace tps::sim
