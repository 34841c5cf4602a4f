/**
 * @file
 * A process-wide memo for inputs that every design of a cell shares:
 * graph500's CSR, the fragmenter's aged memory, ZipfSampler's
 * normaliser.  Each is a pure function of its key, so building it once
 * per process and handing the same value to every later cell changes
 * no simulated statistic.
 *
 * The first caller for a key inserts a future under the lock and
 * builds outside it; later callers for that key wait on the future,
 * so concurrent first requests share one build while different keys
 * build concurrently.  A build that throws fails that caller and every
 * waiter, and leaves no entry, so a later call rebuilds.  Entries are
 * never evicted.
 */

#ifndef TPS_UTIL_MEMO_HH
#define TPS_UTIL_MEMO_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <mutex>

namespace tps::util {

/**
 * Values of type @p Value keyed by @p Key (ordered by operator<).
 * Declare one as a function-local static, so its construction is
 * thread-safe and it lives for the process.  @p Value is returned by
 * copy: make it cheap to copy (a scalar or a shared_ptr).
 */
template <typename Key, typename Value>
class Memo
{
  public:
    /**
     * The value for @p key; the first call for it returns build(),
     * every later call the same value.  Rethrows what build() threw.
     */
    template <typename Build>
    Value
    get(const Key &key, Build &&build)
    {
        std::promise<Value> promise;
        std::shared_future<Value> entry;
        bool inserted;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, fresh] = entries_.try_emplace(key);
            if (fresh)
                it->second = promise.get_future().share();
            entry = it->second;
            inserted = fresh;
        }
        if (inserted) {
            builds_.fetch_add(1, std::memory_order_relaxed);
            try {
                promise.set_value(build());
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    entries_.erase(key);
                }
                promise.set_exception(std::current_exception());
            }
        }
        return entry.get();
    }

    /** Builds started so far, failed ones included (tests). */
    uint64_t
    builds() const
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<Value>> entries_;
    std::atomic<uint64_t> builds_{0};
};

} // namespace tps::util

#endif // TPS_UTIL_MEMO_HH
