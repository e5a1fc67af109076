/**
 * @file
 * Determinism tests for the parallel experiment engine: fanning the
 * sweep grid or the topology sweep across a ThreadPool, or handing
 * compare() a pool, must be invisible in the results — every miss
 * rate and promotion count identical to the serial replay, cell for
 * cell.
 *
 * These tests carry the "tsan" ctest label; a thread-sanitized build
 * (-DGENCACHE_SANITIZE=thread) runs them with `ctest -L tsan`.
 */

#include <gtest/gtest.h>

#include "codecache/tier_pipeline.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
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

void
expectCellsEqual(const SweepResult &serial,
                 const SweepResult &parallel)
{
    EXPECT_EQ(serial.benchmark, parallel.benchmark);
    EXPECT_EQ(serial.capacityBytes, parallel.capacityBytes);
    EXPECT_EQ(serial.unifiedMissRate, parallel.unifiedMissRate);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const SweepCell &a = serial.cells[i];
        const SweepCell &b = parallel.cells[i];
        EXPECT_EQ(a.threshold, b.threshold) << "cell " << i;
        EXPECT_EQ(a.missRate, b.missRate) << "cell " << i;
        EXPECT_EQ(a.promotions, b.promotions) << "cell " << i;
        EXPECT_EQ(a.missRateReductionPct, b.missRateReductionPct)
            << "cell " << i;
        EXPECT_EQ(a.point.nurseryFrac, b.point.nurseryFrac)
            << "cell " << i;
        EXPECT_EQ(a.point.probationFrac, b.point.probationFrac)
            << "cell " << i;
    }
}

TEST(ParallelSweep, FourWorkersMatchSerialExactly)
{
    workload::BenchmarkProfile profile =
        tinyProfile("parallel-sweep", 47);
    std::vector<SweepPoint> points = {
        {0.45, 0.10}, {1.0 / 3, 1.0 / 3}, {0.25, 0.50}};
    std::vector<std::uint32_t> thresholds = {1, 5, 10};

    SweepResult serial = runSweep(profile, points, thresholds, 1);
    SweepResult parallel = runSweep(profile, points, thresholds, 4);
    expectCellsEqual(serial, parallel);
}

TEST(ParallelSweep, OversubscribedWorkersMatchSerialExactly)
{
    // More workers than cells: the pool clamps, order still holds.
    workload::BenchmarkProfile profile =
        tinyProfile("parallel-sweep-over", 48);
    std::vector<SweepPoint> points = {{0.45, 0.10}, {0.40, 0.20}};
    std::vector<std::uint32_t> thresholds = {1, 10};

    SweepResult serial = runSweep(profile, points, thresholds, 1);
    SweepResult parallel = runSweep(profile, points, thresholds, 16);
    expectCellsEqual(serial, parallel);
}

TEST(ParallelSweep, TopologySweepThreadedMatchesSerial)
{
    // Serially the catalog shares one batched pass; threaded, every
    // worker runs its own single-topology pass. The cells must agree.
    workload::BenchmarkProfile profile =
        tinyProfile("parallel-topology", 51);
    const std::vector<cache::TierTopology> &catalog =
        cache::namedTierTopologies();

    TopologySweepResult serial = runTopologySweep(profile, catalog, 1);
    TopologySweepResult parallel =
        runTopologySweep(profile, catalog, 4);
    EXPECT_EQ(serial.benchmark, parallel.benchmark);
    EXPECT_EQ(serial.capacityBytes, parallel.capacityBytes);
    EXPECT_EQ(serial.unifiedMissRate, parallel.unifiedMissRate);
    ASSERT_EQ(serial.cells.size(), catalog.size());
    ASSERT_EQ(parallel.cells.size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const TopologyCell &a = serial.cells[i];
        const TopologyCell &b = parallel.cells[i];
        EXPECT_EQ(a.topology, catalog[i].name);
        EXPECT_EQ(a.topology, b.topology);
        EXPECT_EQ(a.tierCount, b.tierCount) << a.topology;
        EXPECT_EQ(a.missRate, b.missRate) << a.topology;
        EXPECT_EQ(a.missRateReductionPct, b.missRateReductionPct)
            << a.topology;
        EXPECT_EQ(a.promotions, b.promotions) << a.topology;
        EXPECT_EQ(a.overheadInstrs, b.overheadInstrs) << a.topology;
    }
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
