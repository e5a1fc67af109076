#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.h"

namespace {

using namespace gencache;

/** Scoped GENCACHE_THREADS override that restores the prior value. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *old = std::getenv("GENCACHE_THREADS");
        had_ = old != nullptr;
        if (had_) {
            saved_ = old;
        }
        if (value != nullptr) {
            ::setenv("GENCACHE_THREADS", value, 1);
        } else {
            ::unsetenv("GENCACHE_THREADS");
        }
    }

    ~ScopedThreadsEnv()
    {
        if (had_) {
            ::setenv("GENCACHE_THREADS", saved_.c_str(), 1);
        } else {
            ::unsetenv("GENCACHE_THREADS");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([i]() { return i * i; }));
    }
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    }
}

TEST(ThreadPool, SingleWorkerDispatchesFifo)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
        futures.push_back(
            pool.submit([&order, i]() { order.push_back(i); }));
    }
    for (auto &future : futures) {
        future.get();
    }
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    std::future<int> bad = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    std::future<int> good = pool.submit([]() { return 7; });

    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take the pool down with it.
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> completed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 16; ++i) {
            pool.submit([&completed]() {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                completed.fetch_add(1);
            });
        }
        // Futures intentionally discarded: destruction alone must
        // finish the queue.
    }
    EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvironment)
{
    {
        ScopedThreadsEnv env("3");
        EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
        ThreadPool pool; // count 0 -> environment
        EXPECT_EQ(pool.size(), 3u);
    }
    {
        ScopedThreadsEnv env("0"); // nonsense clamps to 1
        EXPECT_EQ(ThreadPool::defaultThreadCount(), 1u);
    }
    {
        ScopedThreadsEnv env("9999"); // clamped to 256
        EXPECT_EQ(ThreadPool::defaultThreadCount(), 256u);
    }
    {
        ScopedThreadsEnv env(nullptr);
        EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    }
}

TEST(ThreadPool, MalformedEnvironmentFallsBackToHardware)
{
    std::size_t hardware;
    {
        ScopedThreadsEnv env(nullptr);
        hardware = ThreadPool::defaultThreadCount();
    }
    // A value that is not a complete unsigned decimal number must not
    // silently become 0 -> 1 thread (it used to serialize every
    // experiment), nor some other count; it is rejected and the
    // hardware default used instead. The blank- and sign-led counts
    // differ from the hardware's, so parsing them as numbers shows.
    const std::string other = std::to_string(hardware == 2 ? 3 : 2);
    const std::string blank_led = " " + other;
    const std::string plus_led = "+" + other;
    for (const char *bad :
         {"abc", "8x", "", " ", "2.5", "0x4", "-2", "-3",
          blank_led.c_str(), plus_led.c_str()}) {
        ScopedThreadsEnv env(bad);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), hardware)
            << "GENCACHE_THREADS='" << bad << "'";
    }
    {
        ScopedThreadsEnv env("99999999999999999999"); // ERANGE
        EXPECT_EQ(ThreadPool::defaultThreadCount(), hardware);
    }
}

TEST(ThreadPool, ParallelTasksShareWork)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::future<void>> futures;
    for (std::uint64_t i = 1; i <= 1000; ++i) {
        futures.push_back(
            pool.submit([&sum, i]() { sum.fetch_add(i); }));
    }
    for (auto &future : futures) {
        future.get();
    }
    EXPECT_EQ(sum.load(), 1000u * 1001u / 2);
}

} // namespace
