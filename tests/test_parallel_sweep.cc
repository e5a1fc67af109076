/**
 * @file
 * Determinism tests for the parallel experiment engine: handing
 * compare() a pool, or replaying one runner's memoized baselines from
 * many threads at once, must be invisible in the results — every miss
 * rate and promotion count identical to the serial replay.
 *
 * These tests carry the "tsan" ctest label; a thread-sanitized build
 * (-DGENCACHE_SANITIZE=thread) runs them with `ctest -L tsan`.
 */

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim_identity.h"
#include "support/thread_pool.h"

namespace gencache::sim {
namespace {

workload::BenchmarkProfile
tinyProfile(const char *name, std::uint64_t seed)
{
    workload::BenchmarkProfile profile;
    profile.name = name;
    profile.durationSec = 2.0;
    profile.finalCacheKb = 96.0;
    profile.execsPerTraceMean = 20.0;
    profile.seed = seed;
    return profile;
}

TEST(ParallelSweep, CompareWithPoolMatchesSerial)
{
    workload::BenchmarkProfile profile =
        tinyProfile("parallel-compare", 49);
    ExperimentRunner runner(profile);
    std::vector<GenerationalLayout> layouts = paperLayouts();

    ThreadPool serial_pool(1);
    ThreadPool wide_pool(4);
    BenchmarkComparison a = runner.compare(layouts, &serial_pool);
    BenchmarkComparison b = runner.compare(layouts, &wide_pool);

    EXPECT_EQ(a.maxCacheBytes, b.maxCacheBytes);
    EXPECT_EQ(a.capacityBytes, b.capacityBytes);
    identity::expectIdentical(a.unified, b.unified, "unified");
    ASSERT_EQ(a.generational.size(), b.generational.size());
    for (std::size_t i = 0; i < a.generational.size(); ++i) {
        identity::expectIdentical(a.generational[i], b.generational[i],
                                  layouts[i].label);
    }
}

TEST(ParallelSweep, ConcurrentReplaysShareMemoizedBaselines)
{
    // Hammer the memoized entry points from many threads at once; the
    // unbounded pre-pass and the unified baseline must come out
    // identical every time (and TSan must stay quiet).
    workload::BenchmarkProfile profile =
        tinyProfile("parallel-memo", 50);
    ExperimentRunner runner(profile);

    ThreadPool pool(8);
    std::vector<std::future<std::uint64_t>> peaks;
    std::vector<std::future<std::uint64_t>> misses;
    for (int i = 0; i < 8; ++i) {
        peaks.push_back(pool.submit(
            [&runner]() { return runner.runUnbounded().peakBytes; }));
        misses.push_back(pool.submit([&runner]() {
            return runner.runUnified(64 * 1024).misses;
        }));
    }
    std::uint64_t peak = peaks.front().get();
    std::uint64_t miss = misses.front().get();
    EXPECT_GT(peak, 0u);
    for (auto &future : peaks) {
        if (future.valid()) {
            EXPECT_EQ(future.get(), peak);
        }
    }
    for (auto &future : misses) {
        if (future.valid()) {
            EXPECT_EQ(future.get(), miss);
        }
    }
}

} // namespace
} // namespace gencache::sim
