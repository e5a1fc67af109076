/**
 * @file
 * A fixed-size worker pool with futures-based task submission.
 *
 * The experiment drivers fan independent work (one benchmark profile
 * per task in bench/paper_figures, the tournament's shards) out
 * across a ThreadPool. Tasks are arbitrary callables; submit() returns a std::future carrying the
 * callable's result, and exceptions thrown inside a task propagate to
 * whoever calls future.get().
 *
 * The worker count is chosen once at construction: an explicit count,
 * or (for count 0) the GENCACHE_THREADS environment variable, falling
 * back to std::thread::hardware_concurrency(). GENCACHE_THREADS=1
 * forces fully serial execution everywhere the pool is consulted.
 */

#ifndef GENCACHE_SUPPORT_THREAD_POOL_H
#define GENCACHE_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/thread_annotations.h"

namespace gencache {

/** Fixed-size task pool. Threads start in the constructor and join in
 *  the destructor after draining the queue. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 picks defaultThreadCount().
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Waits for queued tasks to finish, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Enqueue @p fn for execution on a worker thread.
     *
     * Tasks are dispatched in FIFO order. The returned future carries
     * the callable's result; an exception thrown by @p fn is captured
     * and rethrown from future.get().
     */
    template <typename Fn>
    auto submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        {
            MutexLock lock(mutex_);
            queue_.emplace_back([task]() { (*task)(); });
        }
        available_.notify_one();
        return future;
    }

    /**
     * Worker count implied by the environment: GENCACHE_THREADS when
     * set to a complete unsigned decimal number (clamped to
     * [1, 256]), otherwise hardware_concurrency(), never less than
     * 1. A malformed GENCACHE_THREADS (empty, a leading blank or
     * sign, non-numeric, trailing junk, or out of range) is rejected
     * with a logged warning and the hardware default is used.
     */
    static std::size_t defaultThreadCount();

  private:
    void workerLoop();

    Mutex mutex_;
    // condition_variable_any: the annotated Mutex is a BasicLockable
    // that std::condition_variable (unique_lock<std::mutex> only)
    // cannot wait on.
    std::condition_variable_any available_;
    std::deque<std::function<void()>> queue_ GENCACHE_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
    bool stopping_ GENCACHE_GUARDED_BY(mutex_) = false;
};

} // namespace gencache

#endif // GENCACHE_SUPPORT_THREAD_POOL_H
