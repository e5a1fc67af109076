/**
 * @file
 * Unit tests for trace-driven replay (one-lane blocked passes of
 * sim::BatchedReplay; the CacheSimulator suite keeps the name of the
 * per-event loop these semantics were first written against) and the
 * experiment runner (§6 methodology).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/checker.h"
#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "tracelog/compiled_log.h"
#include "workload/generator.h"

namespace gencache::sim {
namespace {

using tracelog::AccessLog;
using tracelog::CompiledLog;
using tracelog::Event;

/** Replay @p log against @p pipeline as a one-lane blocked pass. */
SimResult
replayOneLane(const AccessLog &log, cache::TierPipeline &pipeline)
{
    const CompiledLog compiled = CompiledLog::compile(log);
    BatchedReplay replay(compiled);
    replay.addLane(pipeline);
    return replay.run().front();
}

AccessLog
hotColdLog()
{
    // One hot trace (1) executed throughout; a stream of cold traces
    // creating pressure.
    AccessLog log;
    log.setBenchmark("hot-cold");
    log.setDuration(100'000);
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::traceCreate(1, 1, 100, 0));
    TimeUs t = 2;
    cache::TraceId next = 2;
    for (int round = 0; round < 200; ++round) {
        log.append(Event::traceExec(t++, 1));
        log.append(Event::traceCreate(t++, next, 100, 0));
        log.append(Event::traceExec(t++, next));
        ++next;
    }
    return log;
}

TEST(CacheSimulator, UnboundedHasOnlyCompulsoryBehaviour)
{
    cache::UnifiedCacheManager manager(0);
    SimResult result = replayOneLane(hotColdLog(), manager);
    EXPECT_EQ(result.misses, 0u);
    EXPECT_EQ(result.regenerations, 0u);
    EXPECT_EQ(result.createdTraces, 201u);
    EXPECT_EQ(result.peakBytes, 201u * 100u);
}

TEST(CacheSimulator, PressuredUnifiedCacheMisses)
{
    cache::UnifiedCacheManager manager(1'000); // holds 10 traces
    SimResult result = replayOneLane(hotColdLog(), manager);
    EXPECT_GT(result.misses, 0u);
    EXPECT_GT(result.missRate(), 0.0);
    EXPECT_GT(result.regenerations, 0u);
    EXPECT_GT(result.overhead.total(), 0u);
}

TEST(CacheSimulator, GenerationalProtectsHotTrace)
{
    // The hot trace earns promotion and stops missing; the unified
    // FIFO keeps evicting it. Same total capacity for both.
    std::uint64_t total = 1'000;

    cache::UnifiedCacheManager unified(total);
    SimResult unified_result = replayOneLane(hotColdLog(), unified);

    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(total, 0.45, 0.10,
                                                   1);
    cache::GenerationalCacheManager generational(config);
    const CompiledLog compiled = CompiledLog::compile(hotColdLog());
    BatchedReplay checked(compiled);
    analysis::attachPhaseChecks(checked, generational);
    SimResult generational_result = checked.run().front();

    EXPECT_LT(generational_result.misses, unified_result.misses);
}

TEST(CacheSimulator, ModuleUnloadForcesEvictions)
{
    AccessLog log;
    log.setBenchmark("unload");
    log.setDuration(1000);
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::traceCreate(1, 1, 100, 1));
    log.append(Event::traceExec(2, 1));
    log.append(Event::moduleUnload(3, 1));

    cache::UnifiedCacheManager manager(0);
    const CompiledLog compiled = CompiledLog::compile(log);
    BatchedReplay replay(compiled);
    // Under GENCACHE_CHECK=1 the cheap analysis passes re-verify the
    // cache storage after every module load/unload replayed here.
    analysis::attachPhaseChecks(replay, manager);
    SimResult result = replay.run().front();
    EXPECT_EQ(result.managerStats.unmapDeletions, 1u);
    EXPECT_FALSE(manager.contains(1));
}

TEST(CacheSimulator, PinPreventsEviction)
{
    AccessLog log;
    log.setBenchmark("pin");
    log.setDuration(1000);
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::traceCreate(1, 1, 60, 0));
    log.append(Event::pin(2, 1));
    // Pressure that would otherwise evict trace 1 (cache holds 100B).
    log.append(Event::traceCreate(3, 2, 30, 0));
    log.append(Event::traceCreate(4, 3, 30, 0));
    log.append(Event::traceCreate(5, 4, 30, 0));
    log.append(Event::unpin(6, 1));
    log.append(Event::traceExec(7, 1));

    cache::UnifiedCacheManager manager(100);
    SimResult result = replayOneLane(log, manager);
    EXPECT_EQ(result.misses, 0u); // pinned trace survived
}

TEST(CacheSimulator, MissRegenerationRestoresPinState)
{
    AccessLog log;
    log.setBenchmark("repin");
    log.setDuration(1000);
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::traceCreate(1, 1, 60, 0));
    // Evict trace 1 with pressure, pin it while absent, then execute:
    // the regeneration must re-apply the pin.
    log.append(Event::traceCreate(2, 2, 60, 0));
    log.append(Event::pin(3, 1));
    log.append(Event::traceExec(4, 1)); // miss + regenerate + pin
    log.append(Event::traceCreate(5, 3, 30, 0));
    log.append(Event::traceCreate(6, 4, 30, 0));
    log.append(Event::traceExec(7, 1)); // must still be resident

    cache::UnifiedCacheManager manager(100);
    SimResult result = replayOneLane(log, manager);
    EXPECT_EQ(result.misses, 1u);
}

TEST(ExperimentRunner, PipelineProducesConsistentComparison)
{
    workload::BenchmarkProfile profile;
    profile.name = "exp-tiny";
    profile.durationSec = 2.0;
    profile.finalCacheKb = 96.0;
    profile.execsPerTraceMean = 20.0;
    profile.seed = 13;

    ExperimentRunner runner(profile);
    BenchmarkComparison comparison = runner.compare(paperLayouts());

    EXPECT_GT(comparison.maxCacheBytes, 0u);
    EXPECT_EQ(comparison.capacityBytes,
              std::max<std::uint64_t>(
                  4096, static_cast<std::uint64_t>(std::llround(
                            comparison.maxCacheBytes * 0.5))));
    EXPECT_EQ(comparison.unbounded.misses, 0u);
    EXPECT_GT(comparison.unified.misses, 0u);
    ASSERT_EQ(comparison.generational.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_GT(comparison.generational[i].lookups, 0u);
        // Total capacity is conserved across layouts.
        EXPECT_EQ(comparison.generational[i].managerStats.lookups,
                  comparison.unified.managerStats.lookups);
    }
}

TEST(ExperimentRunner, MissesEliminatedMatchesDifference)
{
    workload::BenchmarkProfile profile;
    profile.name = "exp-diff";
    profile.durationSec = 2.0;
    profile.finalCacheKb = 96.0;
    profile.execsPerTraceMean = 20.0;
    profile.seed = 14;

    ExperimentRunner runner(profile);
    BenchmarkComparison comparison = runner.compare(paperLayouts());
    for (std::size_t i = 0; i < comparison.generational.size(); ++i) {
        EXPECT_EQ(comparison.missesEliminated(i),
                  static_cast<std::int64_t>(comparison.unified.misses) -
                      static_cast<std::int64_t>(
                          comparison.generational[i].misses));
    }
}

TEST(ExperimentRunner, LayoutConfigSplitsTotalExactly)
{
    for (const GenerationalLayout &layout : paperLayouts()) {
        cache::GenerationalConfig config = layout.toConfig(1'000'000);
        EXPECT_EQ(config.totalBytes(), 1'000'000u) << layout.label;
    }
}

TEST(CacheSimulator, RegenerationsNeverExceedMisses)
{
    cache::UnifiedCacheManager manager(1'000);
    SimResult result = replayOneLane(hotColdLog(), manager);
    EXPECT_LE(result.regenerations, result.misses);
    EXPECT_EQ(result.lookups, result.hits + result.misses);
}

TEST(ExperimentRunner, EagerPromotesAtLeastAsManyTraces)
{
    // Eager promotion upgrades on the hit itself; the lazy variant
    // only upgrades survivors at eviction time. Same workload, same
    // layout: eager can only promote at least as often.
    workload::BenchmarkProfile profile;
    profile.name = "eager-prop";
    profile.durationSec = 2.0;
    profile.finalCacheKb = 96.0;
    profile.execsPerTraceMean = 30.0;
    profile.seed = 31;
    ExperimentRunner runner(profile);
    SimResult unbounded = runner.runUnbounded();
    std::uint64_t capacity =
        std::max<std::uint64_t>(4096, unbounded.peakBytes / 2);

    GenerationalLayout lazy;
    lazy.label = "lazy";
    lazy.nurseryFrac = 0.45;
    lazy.probationFrac = 0.10;
    lazy.promotionThreshold = 1;
    GenerationalLayout eager = lazy;
    eager.label = "eager";
    eager.eagerPromotion = true;

    std::vector<SimResult> results =
        runner.runGenerationalBatch(capacity, {lazy, eager});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].manager, "lazy");
    EXPECT_GE(results[1].managerStats.promotions,
              results[0].managerStats.promotions);
}

TEST(Sweep, GridShapeAndBest)
{
    workload::BenchmarkProfile profile;
    profile.name = "sweep-tiny";
    profile.durationSec = 2.0;
    profile.finalCacheKb = 96.0;
    profile.execsPerTraceMean = 25.0;
    profile.seed = 41;

    std::vector<SweepPoint> points = {{0.45, 0.10}, {1.0 / 3, 1.0 / 3}};
    std::vector<std::uint32_t> thresholds = {1, 10};
    SweepResult sweep = runSweep(profile, points, thresholds);

    EXPECT_EQ(sweep.benchmark, "sweep-tiny");
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_GT(sweep.unifiedMissRate, 0.0);
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (std::size_t t = 0; t < thresholds.size(); ++t) {
            const SweepCell &cell = sweep.at(p, t, thresholds.size());
            EXPECT_EQ(cell.threshold, thresholds[t]);
            EXPECT_GE(cell.missRate, 0.0);
        }
    }
    const SweepCell &best = sweep.best();
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_GE(best.missRateReductionPct,
                  cell.missRateReductionPct);
    }
}

TEST(Sweep, PointLabels)
{
    SweepPoint point{0.45, 0.10};
    EXPECT_EQ(point.label(), "45-10-45");
    SweepPoint even{1.0 / 3.0, 1.0 / 3.0};
    EXPECT_EQ(even.label(), "33-33-34");
}

TEST(Sweep, DefaultGridMatchesPaperSpace)
{
    std::vector<SweepPoint> points = defaultSweepPoints();
    std::vector<std::uint32_t> thresholds = defaultSweepThresholds();
    EXPECT_EQ(points.size(), 6u);
    EXPECT_EQ(thresholds.size(), 4u);
    bool has_winner = false;
    for (const SweepPoint &point : points) {
        if (point.label() == "45-10-45") {
            has_winner = true;
        }
        EXPECT_GT(1.0 - point.nurseryFrac - point.probationFrac, 0.0);
    }
    EXPECT_TRUE(has_winner);
}

TEST(ExperimentRunner, PaperLayoutsMatchFigure9)
{
    std::vector<GenerationalLayout> layouts = paperLayouts();
    ASSERT_EQ(layouts.size(), 3u);
    EXPECT_EQ(layouts[0].label, "33-33-33 thr 10");
    EXPECT_EQ(layouts[0].promotionThreshold, 10u);
    EXPECT_EQ(layouts[2].label, "45-10-45 thr 1");
    EXPECT_EQ(layouts[2].promotionThreshold, 1u);
    EXPECT_NEAR(layouts[2].nurseryFrac, 0.45, 1e-12);
    EXPECT_NEAR(layouts[2].probationFrac, 0.10, 1e-12);
}

} // namespace
} // namespace gencache::sim
