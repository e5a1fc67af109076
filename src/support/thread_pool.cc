#include "support/thread_pool.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "support/logging.h"

namespace gencache {

std::size_t
ThreadPool::defaultThreadCount()
{
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    const char *env = std::getenv("GENCACHE_THREADS");
    if (env == nullptr) {
        return hw;
    }
    // Accept only a complete unsigned decimal number: an empty value,
    // a leading blank or sign (" 8", "+8", "-3"), trailing junk ("8x"),
    // a non-numeric string, or an out-of-range value is rejected in
    // favour of the hardware default. Silently treating those as
    // 0 -> 1 thread used to serialize every experiment.
    char *end = nullptr;
    errno = 0;
    long value = std::strtol(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(env[0])) ||
        *end != '\0' || errno == ERANGE) {
        warn("ignoring invalid GENCACHE_THREADS='{}' (not a number); "
             "using {} threads",
             env, hw);
        return hw;
    }
    if (value < 1) {
        return 1; // "0"
    }
    if (value > 256) {
        return 256;
    }
    return static_cast<std::size_t>(value);
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = defaultThreadCount();
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this]() { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    available_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            // wait() releases and reacquires mutex_ itself; the
            // predicate always runs with the lock held.
            available_.wait(mutex_, [this]() GENCACHE_REQUIRES(mutex_) {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ with a drained queue: shut down. Pending
                // tasks always run even when the pool is stopping.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace gencache
