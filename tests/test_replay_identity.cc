// Bit-identity of the blocked replay kernel (sim::BatchedReplay over
// a CompiledLog) against the per-event reference loop,
// CacheSimulator::run over the raw AccessLog. The CompiledLog relabels
// traces to dense ids and the kernel hoists event decode out of the
// lane loop; neither may change a single counter of any SimResult.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codecache/generational_cache.h"
#include "codecache/tier_pipeline.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "sim_identity.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/compiled_log.h"
#include "workload/profile.h"

namespace {

using namespace gencache;
using identity::expectIdentical;

std::uint64_t
managedCapacity(const sim::ExperimentRunner &runner)
{
    return sim::managedCapacityBytes(runner.runUnbounded().peakBytes);
}

sim::GenerationalLayout
layout451045(std::uint32_t threshold)
{
    sim::GenerationalLayout layout;
    layout.label = "45-10-45 thr " + std::to_string(threshold);
    layout.nurseryFrac = 0.45;
    layout.probationFrac = 0.10;
    layout.promotionThreshold = threshold;
    return layout;
}

// Every example workload, every sweep threshold: one blocked pass at
// the managed capacity compare() uses must reproduce the reference
// loop's per-layout replays exactly.
TEST(ReplayIdentity, BatchedMatchesLegacyOnAllWorkloads)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        std::uint64_t capacity = managedCapacity(runner);

        std::vector<sim::GenerationalLayout> layouts;
        for (std::uint32_t threshold : sim::defaultSweepThresholds()) {
            layouts.push_back(layout451045(threshold));
        }

        std::vector<sim::SimResult> batched =
            runner.runGenerationalBatch(capacity, layouts);
        ASSERT_EQ(batched.size(), layouts.size());
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            sim::SimResult legacy =
                runner.runGenerational(capacity, layouts[i]);
            expectIdentical(legacy, batched[i],
                            profile.name + " " + layouts[i].label);
        }
    }
}

// The blocked (chunk x lane-block, table-priced, SIMD-classified)
// kernel against the per-event reference loop: every profile, lane
// counts straddling the lane-block size (1, a partial block, exactly
// one block, one block plus a straggler). Each threshold is replayed
// once on the reference. Every SimResult field — counters, manager
// stats, and the overhead breakdown priced by the precomputed cost
// tables — must be bit-identical.
TEST(ReplayIdentity, BlockedKernelMatchesReferenceAcrossLaneCounts)
{
    const std::size_t block = sim::BatchedReplay::kLaneBlock;
    const std::size_t laneCounts[] = {1, 3, block, block + 1};
    const std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();

    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        // Cheap capacity proxy (both loops see the same value, so the
        // exact pressure point is immaterial here).
        const std::uint64_t capacity = std::max<std::uint64_t>(
            4096,
            static_cast<std::uint64_t>(profile.finalCacheKb) * 512);
        std::map<std::uint32_t, sim::SimResult> reference;

        for (std::size_t lanes : laneCounts) {
            std::vector<sim::GenerationalLayout> layouts;
            for (std::size_t i = 0; i < lanes; ++i) {
                layouts.push_back(
                    layout451045(thresholds[i % thresholds.size()]));
            }
            std::vector<sim::SimResult> blocked =
                runner.runGenerationalBatch(capacity, layouts);
            ASSERT_EQ(blocked.size(), lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                const std::uint32_t threshold =
                    layouts[i].promotionThreshold;
                auto it = reference.find(threshold);
                if (it == reference.end()) {
                    it = reference
                             .emplace(threshold,
                                      runner.runGenerational(
                                          capacity, layouts[i]))
                             .first;
                }
                expectIdentical(it->second, blocked[i],
                                profile.name + " lanes " +
                                    std::to_string(lanes) + " lane " +
                                    std::to_string(i));
            }
        }
    }
}

// A single manager replayed from the compiled log — a one-lane blocked
// pass, pricing with its own cost tables — against the reference loop.
sim::SimResult
replayCompiled(const sim::ExperimentRunner &runner,
               cache::TierPipeline &pipeline)
{
    sim::BatchedReplay replay(runner.compiled());
    replay.addLane(pipeline);
    return replay.run().front();
}

TEST(ReplayIdentity, CompiledSimulatorMatchesLegacyUnified)
{
    sim::ExperimentRunner runner(workload::findProfile("vortex"));
    std::uint64_t capacity = managedCapacity(runner);

    cache::UnifiedCacheManager legacyManager(capacity);
    sim::CacheSimulator legacySim(legacyManager);
    sim::SimResult legacy = legacySim.run(runner.log());

    cache::UnifiedCacheManager fastManager(capacity);
    expectIdentical(legacy, replayCompiled(runner, fastManager),
                    "unified one-lane blocked replay");
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
    expectIdentical(legacy, replayCompiled(runner, fastManager),
                    "generational one-lane blocked replay");
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

// Whole-sweep equivalence, serial and threaded: every cell of the gcc
// sweep must match the reference loop's replay of its layout.
TEST(ReplayIdentity, SweepEnginesProduceIdenticalCells)
{
    workload::BenchmarkProfile profile = workload::findProfile("gcc");
    auto points = sim::defaultSweepPoints();
    auto thresholds = sim::defaultSweepThresholds();

    sim::SweepResult serial =
        sim::runSweep(profile, points, thresholds, 1);
    sim::SweepResult threaded =
        sim::runSweep(profile, points, thresholds, 4);
    EXPECT_EQ(serial.benchmark, threaded.benchmark);
    EXPECT_EQ(serial.capacityBytes, threaded.capacityBytes);
    EXPECT_EQ(serial.unifiedMissRate, threaded.unifiedMissRate);
    ASSERT_GT(serial.unifiedMissRate, 0.0);
    ASSERT_EQ(serial.cells.size(), points.size() * thresholds.size());
    ASSERT_EQ(threaded.cells.size(), serial.cells.size());

    sim::ExperimentRunner runner(profile);
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        sim::GenerationalLayout layout;
        layout.nurseryFrac = points[i / thresholds.size()].nurseryFrac;
        layout.probationFrac =
            points[i / thresholds.size()].probationFrac;
        layout.promotionThreshold = thresholds[i % thresholds.size()];
        const sim::SimResult reference =
            runner.runGenerational(serial.capacityBytes, layout);
        const double reduction =
            (1.0 - reference.missRate() / serial.unifiedMissRate) *
            100.0;
        for (const sim::SweepResult *sweep : {&serial, &threaded}) {
            const sim::SweepCell &cell = sweep->cells[i];
            EXPECT_EQ(cell.threshold, layout.promotionThreshold)
                << "cell " << i;
            EXPECT_EQ(cell.missRate, reference.missRate())
                << "cell " << i;
            EXPECT_EQ(cell.promotions,
                      reference.managerStats.promotions)
                << "cell " << i;
            EXPECT_EQ(cell.missRateReductionPct, reduction)
                << "cell " << i;
        }
    }
}

/** The live runtime's log of a run, a DLL unload and reload, and a
 *  second run: the reloaded DLL's traces are created again under
 *  their canonical (module uid, offset) ids. */
tracelog::AccessLog
liveReloadLog()
{
    guest::SyntheticProgramConfig config;
    config.seed = 33;
    config.phases = 2;
    config.phaseIterations = 10;
    config.innerIterations = 8;
    config.dllCount = 1;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    cache::UnifiedCacheManager manager(0);
    guest::AddressSpace space;
    runtime::Runtime runtime(space, manager, 10);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    guest::ModuleId dll = synthetic.dllLastPhase.at(0).first;
    runtime.unloadModule(dll);
    for (const auto &module : synthetic.program.modules()) {
        if (module->id() == dll) {
            runtime.loadModule(*module);
        }
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    return runtime.log();
}

// A module reload re-creates its traces under the same ids. Both replay
// paths must treat each such creation as a fresh trace: the per-event
// loop replaces its registry entry, compile() hands out a second dense
// id for the same original id. A seven-event journal and the live log
// above replay through the reference loop and a one-lane blocked pass
// under unbounded, pressured-unified, and generational managers.
TEST(ReplayIdentity, ModuleReloadLogReplays)
{
    using tracelog::Event;
    tracelog::AccessLog journal;
    journal.setBenchmark("reload-journal");
    journal.append(Event::moduleLoad(0, 1));
    journal.append(Event::traceCreate(1, 42, 64, 1));
    journal.append(Event::traceExec(2, 42));
    journal.append(Event::moduleUnload(3, 1));
    journal.append(Event::moduleLoad(4, 1));
    journal.append(Event::traceCreate(5, 42, 64, 1));
    journal.append(Event::traceExec(6, 42));
    journal.setDuration(6);

    const tracelog::CompiledLog compiledJournal =
        tracelog::CompiledLog::compile(journal);
    ASSERT_EQ(compiledJournal.traceCount(), 2u);
    EXPECT_EQ(compiledJournal.originalId(0), 42u);
    EXPECT_EQ(compiledJournal.originalId(1), 42u);

    const std::pair<const char *, tracelog::AccessLog> logs[] = {
        {"journal", journal}, {"live", liveReloadLog()}};
    for (const auto &[name, log] : logs) {
        log.validate();
        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(log);
        EXPECT_GT(compiled.traceCount(), 0u) << name;

        std::vector<std::unique_ptr<cache::TierPipeline>> managers;
        for (int copy = 0; copy < 2; ++copy) {
            managers.push_back(
                std::make_unique<cache::UnifiedCacheManager>(0));
            managers.push_back(
                std::make_unique<cache::UnifiedCacheManager>(
                    2 * kKiB));
            managers.push_back(
                std::make_unique<cache::GenerationalCacheManager>(
                    cache::GenerationalConfig::fromProportions(
                        3 * kKiB, 0.40, 0.30, 1)));
        }
        const std::size_t shapes = managers.size() / 2;
        for (std::size_t i = 0; i < shapes; ++i) {
            sim::CacheSimulator reference(*managers[i]);
            sim::BatchedReplay blocked(compiled);
            blocked.addLane(*managers[shapes + i]);
            expectIdentical(reference.run(log), blocked.run().front(),
                            std::string(name) + " " +
                                managers[i]->name());
        }
    }
}

// Set-up after begin() cannot take effect: a late lane would have no
// cost accountant for finish() to read, and begin() has already read
// the cost tables. Both panic instead.
TEST(BatchedReplayDeath, SetupAfterBeginPanics)
{
    using tracelog::Event;
    tracelog::AccessLog log;
    log.setBenchmark("setup-after-begin");
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::traceCreate(1, 42, 64, 1));
    log.append(Event::traceExec(2, 42));
    log.setDuration(2);
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    const sim::CostTables tables =
        sim::CostTables::build(compiled, cost::CostModel{});

    cache::UnifiedCacheManager first(0);
    cache::UnifiedCacheManager late(0);
    sim::BatchedReplay replay(compiled);
    replay.addLane(first);
    replay.begin();
    EXPECT_DEATH(replay.addLane(late), "addLane\\(\\) after begin");
    EXPECT_DEATH(replay.setCostTables(&tables),
                 "setCostTables\\(\\) after begin");
}

} // namespace
