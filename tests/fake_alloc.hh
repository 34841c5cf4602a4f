/**
 * @file
 * An AllocApi stub for workload tests: no simulated memory behind it,
 * just a record of the regions a workload maps.
 */

#ifndef TPS_TESTS_FAKE_ALLOC_HH
#define TPS_TESTS_FAKE_ALLOC_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "util/bitops.hh"
#include "workloads/workload.hh"

namespace tps::test {

/** AllocApi stub recording regions at fixed, disjoint addresses. */
class FakeAlloc : public sim::AllocApi
{
  public:
    vm::Vaddr
    mmap(uint64_t bytes) override
    {
        vm::Vaddr start = cursor_;
        // Align generously so workloads see realistic alignment.
        uint64_t align = 1ull << 30;
        start = alignUp(start, align);
        regions_[start] = bytes;
        cursor_ = start + bytes;
        return start;
    }

    void
    munmap(vm::Vaddr start) override
    {
        ASSERT_TRUE(regions_.count(start));
        regions_.erase(start);
        ++munmaps_;
    }

    bool
    contains(vm::Vaddr va) const
    {
        auto it = regions_.upper_bound(va);
        if (it == regions_.begin())
            return false;
        --it;
        return va >= it->first && va < it->first + it->second;
    }

    uint64_t
    totalMapped() const
    {
        uint64_t sum = 0;
        for (auto &[s, l] : regions_)
            sum += l;
        return sum;
    }

    int munmaps_ = 0;

  private:
    vm::Vaddr cursor_ = 1ull << 40;
    std::map<vm::Vaddr, uint64_t> regions_;
};

} // namespace tps::test

#endif // TPS_TESTS_FAKE_ALLOC_HH
