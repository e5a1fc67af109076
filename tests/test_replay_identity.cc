// Bit-identity of the compiled/batched replay fast paths against the
// legacy per-event CacheSimulator. The CompiledLog relabels traces to
// dense ids and BatchedReplay hoists event decode out of the lane
// loop; neither may change a single counter of any SimResult.

#include <gtest/gtest.h>

#include <algorithm>

#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/thread_pool.h"
#include "workload/profile.h"

namespace {

using namespace gencache;

void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.benchmark, b.benchmark) << what;
    EXPECT_EQ(a.lookups, b.lookups) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.regenerations, b.regenerations) << what;
    EXPECT_EQ(a.peakBytes, b.peakBytes) << what;
    EXPECT_EQ(a.createdTraces, b.createdTraces) << what;
    EXPECT_EQ(a.createdBytes, b.createdBytes) << what;

    const cache::ManagerStats &x = a.managerStats;
    const cache::ManagerStats &y = b.managerStats;
    EXPECT_EQ(x.lookups, y.lookups) << what;
    EXPECT_EQ(x.hits, y.hits) << what;
    EXPECT_EQ(x.misses, y.misses) << what;
    EXPECT_EQ(x.inserts, y.inserts) << what;
    EXPECT_EQ(x.insertedBytes, y.insertedBytes) << what;
    EXPECT_EQ(x.deletions, y.deletions) << what;
    EXPECT_EQ(x.deletedBytes, y.deletedBytes) << what;
    EXPECT_EQ(x.unmapDeletions, y.unmapDeletions) << what;
    EXPECT_EQ(x.unmapDeletedBytes, y.unmapDeletedBytes) << what;
    EXPECT_EQ(x.promotions, y.promotions) << what;
    EXPECT_EQ(x.promotedBytes, y.promotedBytes) << what;
    EXPECT_EQ(x.probationRejections, y.probationRejections) << what;
    EXPECT_EQ(x.placementFailures, y.placementFailures) << what;

    EXPECT_EQ(a.overhead.traceGeneration, b.overhead.traceGeneration)
        << what;
    EXPECT_EQ(a.overhead.contextSwitches, b.overhead.contextSwitches)
        << what;
    EXPECT_EQ(a.overhead.evictions, b.overhead.evictions) << what;
    EXPECT_EQ(a.overhead.promotions, b.overhead.promotions) << what;
    EXPECT_EQ(a.overhead.copies, b.overhead.copies) << what;
}

std::uint64_t
managedCapacity(const sim::ExperimentRunner &runner)
{
    std::uint64_t peak = runner.runUnbounded().peakBytes;
    std::uint64_t capacity = static_cast<std::uint64_t>(
        static_cast<double>(peak) * sim::kCachePressureFactor);
    return capacity < 4096 ? 4096 : capacity;
}

// Every example workload, every sweep threshold: one batched pass
// must reproduce the legacy per-layout replays exactly.
TEST(ReplayIdentity, BatchedMatchesLegacyOnAllWorkloads)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        std::uint64_t capacity = managedCapacity(runner);

        std::vector<sim::GenerationalLayout> layouts;
        for (std::uint32_t threshold : sim::defaultSweepThresholds()) {
            sim::GenerationalLayout layout;
            layout.label = "45-10-45";
            layout.nurseryFrac = 0.45;
            layout.probationFrac = 0.10;
            layout.promotionThreshold = threshold;
            layouts.push_back(layout);
        }

        std::vector<sim::SimResult> batched =
            runner.runGenerationalBatch(capacity, layouts);
        ASSERT_EQ(batched.size(), layouts.size());
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            sim::SimResult legacy =
                runner.runGenerational(capacity, layouts[i]);
            expectIdentical(legacy, batched[i],
                            profile.name + " thr " +
                                std::to_string(
                                    layouts[i].promotionThreshold));
        }
    }
}

// The blocked (chunk x lane-block, table-priced, SIMD-classified)
// kernel against the per-event reference kernel: every profile, lane
// counts straddling the lane-block size (1, a partial block, exactly
// one block, one block plus a straggler). Every SimResult field —
// counters, manager stats, and the overhead breakdown priced by the
// precomputed cost tables — must be bit-identical.
TEST(ReplayIdentity, BlockedKernelMatchesReferenceAcrossLaneCounts)
{
    const std::size_t block = sim::BatchedReplay::kLaneBlock;
    const std::size_t laneCounts[] = {1, 3, block, block + 1};
    const std::uint32_t thresholds[] = {1, 5, 10, 50};

    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        // Cheap capacity proxy (both kernels see the same value, so
        // the exact pressure point is immaterial here).
        std::uint64_t capacity = std::max<std::uint64_t>(
            4096, static_cast<std::uint64_t>(profile.finalCacheKb) *
                      512);

        for (std::size_t lanes : laneCounts) {
            std::vector<sim::GenerationalLayout> layouts;
            for (std::size_t i = 0; i < lanes; ++i) {
                sim::GenerationalLayout layout;
                layout.label = "45-10-45 thr " +
                               std::to_string(thresholds[i % 4]);
                layout.nurseryFrac = 0.45;
                layout.probationFrac = 0.10;
                layout.promotionThreshold = thresholds[i % 4];
                layouts.push_back(std::move(layout));
            }
            std::vector<sim::SimResult> reference =
                runner.runGenerationalBatch(
                    capacity, layouts, sim::ReplayKernel::Reference);
            std::vector<sim::SimResult> blocked =
                runner.runGenerationalBatch(
                    capacity, layouts, sim::ReplayKernel::Blocked);
            ASSERT_EQ(reference.size(), lanes);
            ASSERT_EQ(blocked.size(), lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                expectIdentical(reference[i], blocked[i],
                                profile.name + " lanes " +
                                    std::to_string(lanes) + " lane " +
                                    std::to_string(i));
            }
        }
    }
}

// The single-manager compiled fast path (CacheSimulator overload).
TEST(ReplayIdentity, CompiledSimulatorMatchesLegacyUnified)
{
    sim::ExperimentRunner runner(workload::findProfile("vortex"));
    std::uint64_t capacity = managedCapacity(runner);

    cache::UnifiedCacheManager legacyManager(capacity);
    sim::CacheSimulator legacySim(legacyManager);
    sim::SimResult legacy = legacySim.run(runner.log());

    cache::UnifiedCacheManager fastManager(capacity);
    sim::CacheSimulator fastSim(fastManager);
    sim::SimResult fast = fastSim.run(runner.compiled());

    expectIdentical(legacy, fast, "unified compiled fast path");
}

TEST(ReplayIdentity, CompiledSimulatorMatchesLegacyGenerational)
{
    sim::ExperimentRunner runner(workload::findProfile("crafty"));
    std::uint64_t capacity = managedCapacity(runner);
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(capacity, 0.45,
                                                   0.10, 1);

    cache::GenerationalCacheManager legacyManager(config);
    sim::CacheSimulator legacySim(legacyManager);
    sim::SimResult legacy = legacySim.run(runner.log());

    cache::GenerationalCacheManager fastManager(config);
    sim::CacheSimulator fastSim(fastManager);
    sim::SimResult fast = fastSim.run(runner.compiled());

    expectIdentical(legacy, fast, "generational compiled fast path");
}

// The runner's §6 steps on the blocked kernel — the one-lane unbounded
// and unified baselines and compare()'s single batched pass (handed a
// 2-worker pool, which it ignores) — against the legacy per-event
// loop. gcc is a SPEC profile; word adds mid-run DLL unloads. Both
// run at a quarter of their size, which keeps every event kind.
TEST(ReplayIdentity, RunnerBaselinesMatchLegacy)
{
    struct Case
    {
        const char *profile;
        bool unloads;
    };
    ThreadPool pool(2);
    for (const Case &c : {Case{"gcc", false}, Case{"word", true}}) {
        workload::BenchmarkProfile profile =
            workload::findProfile(c.profile);
        profile.finalCacheKb *= 0.25;
        profile.durationSec *= 0.25;
        sim::ExperimentRunner runner(profile);
        const std::string what = c.profile;

        bool unloads = false;
        bool pins = false;
        for (const tracelog::Event &event : runner.log().events()) {
            unloads |= event.type == tracelog::EventType::ModuleUnload;
            pins |= event.type == tracelog::EventType::Pin;
        }
        EXPECT_EQ(unloads, c.unloads) << what;
        EXPECT_TRUE(pins) << what;

        cache::UnifiedCacheManager unboundedManager(0);
        sim::CacheSimulator unboundedSim(unboundedManager);
        sim::SimResult unbounded = unboundedSim.run(runner.log());
        unbounded.peakBytes =
            std::max(unbounded.peakBytes, unboundedManager.peakBytes());
        expectIdentical(unbounded, runner.runUnbounded(),
                        what + " unbounded");

        const std::uint64_t capacity =
            sim::managedCapacityBytes(unbounded.peakBytes);
        cache::UnifiedCacheManager unifiedManager(
            capacity, cache::LocalPolicy::PseudoCircular);
        sim::CacheSimulator unifiedSim(unifiedManager);
        expectIdentical(unifiedSim.run(runner.log()),
                        runner.runUnified(capacity), what + " unified");

        const std::vector<sim::GenerationalLayout> layouts =
            sim::paperLayouts();
        sim::BenchmarkComparison comparison =
            runner.compare(layouts, &pool);
        EXPECT_EQ(comparison.maxCacheBytes, unbounded.peakBytes) << what;
        EXPECT_EQ(comparison.capacityBytes, capacity) << what;
        ASSERT_EQ(comparison.generational.size(), layouts.size());
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            sim::SimResult legacy =
                runner.runGenerational(capacity, layouts[i]);
            EXPECT_EQ(comparison.generational[i].manager, legacy.manager)
                << what;
            expectIdentical(legacy, comparison.generational[i],
                            what + " " + layouts[i].label);
        }
    }
}

// Whole-sweep equivalence of the two engines, serial and threaded.
TEST(ReplayIdentity, SweepEnginesProduceIdenticalCells)
{
    workload::BenchmarkProfile profile = workload::findProfile("gcc");
    auto points = sim::defaultSweepPoints();
    auto thresholds = sim::defaultSweepThresholds();

    sim::SweepResult legacy = sim::runSweep(
        profile, points, thresholds, 1, sim::ReplayEngine::Legacy);
    sim::SweepResult batchedSerial =
        sim::runSweep(profile, points, thresholds, 1,
                      sim::ReplayEngine::BatchedCompiled);
    sim::SweepResult batchedThreaded =
        sim::runSweep(profile, points, thresholds, 4,
                      sim::ReplayEngine::BatchedCompiled);

    auto expect_cells = [&](const sim::SweepResult &a,
                            const sim::SweepResult &b) {
        EXPECT_EQ(a.benchmark, b.benchmark);
        EXPECT_EQ(a.capacityBytes, b.capacityBytes);
        EXPECT_EQ(a.unifiedMissRate, b.unifiedMissRate);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t i = 0; i < a.cells.size(); ++i) {
            EXPECT_EQ(a.cells[i].threshold, b.cells[i].threshold)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].missRate, b.cells[i].missRate)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].promotions, b.cells[i].promotions)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].missRateReductionPct,
                      b.cells[i].missRateReductionPct)
                << "cell " << i;
        }
    };
    expect_cells(legacy, batchedSerial);
    expect_cells(legacy, batchedThreaded);
}

} // namespace
