#include "util/task_pool.hh"

namespace tps::util {

unsigned
TaskPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

TaskPool::TaskPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
}

TaskPool::~TaskPool()
{
    for (auto &w : workers_)
        w.request_stop();
    cv_.notify_all();
    // jthread joins on destruction; workers drain the queue first.
}

void
TaskPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    cv_.notify_one();
}

void
TaskPool::workerLoop(std::stop_token stop)
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, stop, [this] { return !queue_.empty(); });
            if (queue_.empty())
                return;  // stop requested and nothing left to run
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();  // packaged_task: exceptions land in the future
    }
}

} // namespace tps::util
