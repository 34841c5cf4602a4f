/**
 * @file
 * A fixed-size worker-thread pool with futures.
 *
 * Deliberately simple: one shared FIFO queue, no work stealing, no
 * priorities.  Tasks run in submission order whenever a worker is free
 * (with one worker this degenerates to exact serial order), results and
 * exceptions travel back through std::future, and the destructor drains
 * the queue before joining.  This is all the experiment sweeps need:
 * they submit every cell up front and then wait on the futures in
 * submission order, so output ordering never depends on scheduling.
 */

#ifndef TPS_UTIL_TASK_POOL_HH
#define TPS_UTIL_TASK_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tps::util {

class TaskPool
{
  public:
    /**
     * Start @p threads workers (0 = one per hardware thread).  The
     * count is clamped to at least one worker.
     */
    explicit TaskPool(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Number of worker threads. */
    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Queue @p fn for execution and return the future holding its
     * result.  An exception thrown by @p fn is captured and rethrown
     * from future::get() in the submitter's thread.
     */
    template <typename Fn>
    std::future<std::invoke_result_t<Fn>>
    submit(Fn fn)
    {
        using R = std::invoke_result_t<Fn>;
        // shared_ptr because std::function requires a copyable target
        // while packaged_task is move-only.
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /** The worker count `threads = 0` resolves to. */
    static unsigned hardwareThreads();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop(std::stop_token stop);

    std::mutex mutex_;
    std::condition_variable_any cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::jthread> workers_;
};

} // namespace tps::util

#endif // TPS_UTIL_TASK_POOL_HH
