/**
 * @file
 * Integration tests across the whole stack: synthetic guest programs
 * executed by the runtime, logs replayed by the blocked kernel, and the
 * full experiment pipeline on real profiles.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/checker.h"
#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim_identity.h"
#include "tracelog/lifetime.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace gencache {
namespace {

/** Replay @p log against @p pipeline as a one-lane blocked pass. */
sim::SimResult
replayOneLane(const tracelog::AccessLog &log,
              cache::TierPipeline &pipeline)
{
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    sim::BatchedReplay replay(compiled);
    replay.addLane(pipeline);
    return replay.run().front();
}

/** Run a synthetic program under the runtime and return its log. */
tracelog::AccessLog
runLiveProgram(cache::TierPipeline &manager, std::uint64_t seed)
{
    guest::SyntheticProgramConfig config;
    config.seed = seed;
    config.phases = 3;
    config.phaseIterations = 40;
    config.innerIterations = 25;
    config.dllCount = 2;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    runtime::Runtime runtime(space, manager, 10);
    // Under GENCACHE_CHECK=1 the cheap analysis passes re-verify the
    // link graph and cache storage at every phase boundary.
    analysis::attachPhaseChecks(runtime);
    runtime.start(synthetic.program.entry());
    runtime.run();
    EXPECT_TRUE(runtime.finished());
    return runtime.log();
}

TEST(Integration, LiveLogReplaysWithConsistentBehaviour)
{
    // Execute live with an unbounded cache, then replay the log
    // against the same configuration: the replay sees one lookup per
    // trace execution and never misses (nothing was ever evicted).
    cache::UnifiedCacheManager live_manager(0);
    tracelog::AccessLog log = runLiveProgram(live_manager, 51);
    log.validate();

    cache::UnifiedCacheManager replay_manager(0);
    sim::SimResult result = replayOneLane(log, replay_manager);
    EXPECT_EQ(result.misses, 0u);
    EXPECT_EQ(result.createdTraces, log.createdTraceCount());
}

TEST(Integration, LiveLogSurvivesSerializationRoundTrip)
{
    cache::UnifiedCacheManager manager(0);
    tracelog::AccessLog log = runLiveProgram(manager, 52);

    std::stringstream stream;
    tracelog::writeBinary(log, stream);
    tracelog::AccessLog loaded = tracelog::readBinary(stream);
    loaded.validate();

    cache::UnifiedCacheManager replay_a(64 * kKiB);
    sim::SimResult result_a = replayOneLane(log, replay_a);

    cache::UnifiedCacheManager replay_b(64 * kKiB);
    sim::SimResult result_b = replayOneLane(loaded, replay_b);

    identity::expectIdentical(result_a, result_b, "round trip");
}

TEST(Integration, GenerationalBeatsUnifiedOnGeneratedWorkload)
{
    // End-to-end §6 methodology on a real (scaled-down) profile.
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    profile.durationSec = 4.0;
    profile.finalCacheKb = 128.0;
    profile.execsPerTraceMean = 40.0;

    sim::ExperimentRunner runner(profile);
    sim::BenchmarkComparison comparison =
        runner.compare(sim::paperLayouts());

    // 45-10-45 with single-hit promotion (index 2) should beat the
    // unified baseline on this strongly U-shaped workload.
    EXPECT_GT(comparison.missRateReductionPct(2), 0.0);
    EXPECT_GT(comparison.missesEliminated(2), 0);
    EXPECT_LT(comparison.overheadRatioPct(2), 100.0);
}

TEST(Integration, GeneratedLifetimesAreUShaped)
{
    workload::BenchmarkProfile profile = workload::findProfile("word");
    profile.durationSec = 3.0;
    profile.finalCacheKb = 256.0;

    tracelog::AccessLog log = workload::generateWorkload(profile);
    log.validate();
    tracelog::LifetimeAnalyzer analyzer(log);
    Histogram histogram = analyzer.lifetimeHistogram();
    double extremes =
        histogram.binFraction(0) + histogram.binFraction(4);
    EXPECT_GT(extremes, 0.55);
}

TEST(Integration, UnmappedBytesTrackProfileFraction)
{
    workload::BenchmarkProfile profile =
        workload::findProfile("iexplore");
    profile.durationSec = 3.0;
    profile.finalCacheKb = 256.0;

    sim::ExperimentRunner runner(profile);
    sim::SimResult unbounded = runner.runUnbounded();
    double unmap_frac =
        static_cast<double>(
            unbounded.managerStats.unmapDeletedBytes) /
        static_cast<double>(unbounded.createdBytes);
    EXPECT_NEAR(unmap_frac, profile.unmapFrac, 0.06);
}

TEST(Integration, LiveRuntimeUnderPressureStaysConsistent)
{
    // Generational manager with a small total: heavy promotion and
    // eviction churn while the guest is actually executing. The
    // manager's internal index must stay consistent throughout.
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(3 * kKiB, 0.40,
                                                   0.30, 1);
    cache::GenerationalCacheManager manager(config);
    tracelog::AccessLog log = runLiveProgram(manager, 53);
    manager.validate();
    EXPECT_GT(manager.stats().promotions, 0u);
    log.validate();
}

TEST(Integration, RuntimeResidencyImprovesWithCacheSize)
{
    std::uint64_t small_cache = 4 * kKiB;
    std::uint64_t large_cache = 512 * kKiB;
    double residency[2];
    int index = 0;
    for (std::uint64_t capacity : {small_cache, large_cache}) {
        guest::SyntheticProgramConfig config;
        config.seed = 54;
        config.phases = 3;
        config.phaseIterations = 40;
        config.innerIterations = 25;
        guest::SyntheticProgram synthetic =
            guest::generateSyntheticProgram(config);
        guest::AddressSpace space;
        for (const auto &module : synthetic.program.modules()) {
            space.map(*module);
        }
        cache::UnifiedCacheManager manager(capacity);
        runtime::Runtime runtime(space, manager, 10);
        analysis::attachPhaseChecks(runtime);
        runtime.start(synthetic.program.entry());
        runtime.run();
        residency[index++] = runtime.stats().cacheResidency();
    }
    EXPECT_GE(residency[1], residency[0]);
}

} // namespace
} // namespace gencache
