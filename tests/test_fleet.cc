// Fleet simulation and the cross-process shared store.
//
// The two load-bearing promises of the shared tier:
//
//  1. Sharing OFF is free: an N-process fleet with no shared store is
//     bit-identical — SimResult counters, cost-model overhead (which
//     aggregates every cache event), manager/tier statistics, and
//     end-state residency — to N independent single-process replays.
//     Mounting the tier changes nothing until it is actually used.
//  2. Cross-process invalidation is complete: unmapping a shared DLL
//     anywhere drops the module's traces from EVERY shard, and any
//     entry that survives a storm postdates the invalidation tick
//     (the shr-* passes re-derive this from the end state).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "analysis/shared_passes.h"
#include "codecache/shared_store.h"
#include "codecache/tier_pipeline.h"
#include "sim/batched_replay.h"
#include "sim/fleet.h"
#include "sim_identity.h"
#include "tracelog/compiled_log.h"
#include "workload/generator.h"

namespace {

using namespace gencache;
using cache::SharedCodeStore;
using identity::expectIdentical;

workload::FleetWorkloadConfig
smallFleet(unsigned storms, std::uint64_t seed,
           const std::string &prefix)
{
    workload::FleetWorkloadConfig config;
    config.processes = 8;
    config.sharedDlls = 3;
    config.sharedLibKb = 40.0;
    config.privateKb = 24.0;
    config.durationSec = 6.0;
    config.unmapStorms = storms;
    config.seed = seed;
    config.namePrefix = prefix;
    return config;
}

std::vector<tracelog::CompiledLog>
compileFleet(const workload::FleetWorkloadConfig &config)
{
    std::vector<tracelog::CompiledLog> compiled;
    for (const tracelog::AccessLog &log :
         workload::generateFleetWorkload(config)) {
        compiled.push_back(tracelog::CompiledLog::compile(log));
    }
    return compiled;
}

/** Sorted (tier, id, size, pinned) tuples: the pipeline's end-state
 *  residency, comparable across independently-built pipelines. */
std::vector<std::tuple<std::size_t, cache::TraceId, std::uint32_t, bool>>
residencyFingerprint(const cache::TierPipeline &pipeline)
{
    std::vector<
        std::tuple<std::size_t, cache::TraceId, std::uint32_t, bool>>
        out;
    for (std::size_t tier = 0; tier < pipeline.tierCount(); ++tier) {
        pipeline.tierCache(tier).forEach(
            [&out, tier](const cache::Fragment &frag) {
                out.emplace_back(tier, frag.id, frag.sizeBytes,
                                 frag.pinned);
            });
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FleetSharingOff, BitIdenticalToIndependentReplays)
{
    // Two fleets x eight per-process logs = sixteen distinct
    // workload profiles compared against their solo replays.
    for (unsigned storms : {0u, 2u}) {
        workload::FleetWorkloadConfig config = smallFleet(
            storms, /*seed=*/41 + storms,
            storms == 0 ? "calm" : "churn");
        std::vector<tracelog::CompiledLog> compiled =
            compileFleet(config);

        sim::FleetOptions options;
        options.sharing = false;
        sim::FleetSimulator fleet(compiled, options);
        sim::FleetResult result = fleet.run();
        ASSERT_EQ(result.processes.size(), compiled.size());
        EXPECT_FALSE(result.sharing);
        EXPECT_EQ(result.storeEntries, 0u);

        const cache::TierTopology *topology =
            cache::findTierTopology(options.topology);
        ASSERT_NE(topology, nullptr);
        for (std::size_t p = 0; p < compiled.size(); ++p) {
            std::unique_ptr<cache::TierPipeline> solo =
                topology->build(options.budgetBytes);
            sim::BatchedReplay replay(compiled[p]);
            replay.addLane(*solo);
            std::vector<sim::SimResult> solo_results = replay.run();
            ASSERT_EQ(solo_results.size(), 1u);

            SCOPED_TRACE("process " + std::to_string(p) +
                         " storms " + std::to_string(storms));
            expectIdentical(result.processes[p].sim, solo_results[0],
                            "fleet vs solo replay");
            EXPECT_EQ(residencyFingerprint(fleet.pipeline(
                          static_cast<unsigned>(p))),
                      residencyFingerprint(*solo));
        }
    }
}

TEST(FleetSharingOn, RoundRobinIsDeterministic)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/1, /*seed=*/7, "det");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 4;
    options.store.capacityBytes = 256 * 1024;

    sim::FleetSimulator first(compiled, options);
    sim::FleetResult a = first.run();
    sim::FleetSimulator second(compiled, options);
    sim::FleetResult b = second.run();

    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t p = 0; p < a.processes.size(); ++p) {
        SCOPED_TRACE("process " + std::to_string(p));
        expectIdentical(a.processes[p].sim, b.processes[p].sim,
                        "first vs second run");
        EXPECT_EQ(a.processes[p].sharedTier.probes,
                  b.processes[p].sharedTier.probes);
        EXPECT_EQ(a.processes[p].sharedTier.hits,
                  b.processes[p].sharedTier.hits);
        EXPECT_EQ(a.processes[p].sharedTier.publishes,
                  b.processes[p].sharedTier.publishes);
    }
    EXPECT_EQ(a.storePeakUsedBytes, b.storePeakUsedBytes);
    EXPECT_EQ(a.storePeakClaimedBytes, b.storePeakClaimedBytes);
    EXPECT_EQ(a.storeEntries, b.storeEntries);
    EXPECT_EQ(a.storeStats.inserts, b.storeStats.inserts);
    EXPECT_EQ(a.storeStats.attaches, b.storeStats.attaches);
}

TEST(FleetSharingOn, FleetActuallyDeduplicates)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/0, /*seed=*/11, "dedup");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    // Half the per-process footprint: capacity evictions from the
    // last private tier are what publish into the store.
    options.budgetBytes = 32 * 1024;
    options.store.capacityBytes = 1024 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.run();

    EXPECT_GT(result.dedupSavedBytes(), 0u);
    // Every process after the first publisher attaches instead of
    // inserting: well over one dedup attach per process.
    EXPECT_GT(result.storeStats.attaches - result.storeStats.inserts,
              result.processes.size());

    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

TEST(SharedStoreUnmap, InvalidationSweepsEveryShard)
{
    cache::SharedStoreConfig config;
    config.shards = 8;
    config.capacityBytes = 8u << 20;
    SharedCodeStore store(config);

    const cache::ModuleUid doomed = cache::moduleUidOfName("doomed.dll");
    const cache::ModuleUid kept = cache::moduleUidOfName("kept.dll");
    // Enough keys that every shard holds entries of both modules.
    for (std::uint32_t i = 0; i < 128; ++i) {
        store.publish(cache::canonicalTraceId(doomed, i * 64), 64,
                      /*process=*/i % 4);
        store.publish(cache::canonicalTraceId(kept, i * 64), 64,
                      /*process=*/i % 4);
    }
    ASSERT_TRUE(store.containsModule(doomed));
    ASSERT_TRUE(store.containsModule(kept));

    store.invalidateModule(doomed);

    EXPECT_FALSE(store.containsModule(doomed));
    EXPECT_TRUE(store.containsModule(kept));
    store.forEachEntry([doomed](unsigned, const SharedCodeStore::Entry
                                             &entry) {
        EXPECT_NE(cache::traceIdUid(entry.key), doomed);
    });
    EXPECT_EQ(store.stats().unmapEvictions, 128u);
    EXPECT_EQ(store.stats().invalidations, 1u);
    EXPECT_GT(store.lastInvalidationTick(doomed), 0u);
    store.validate();

    // A post-invalidation republish is legitimately newer than the
    // invalidation tick — the shr-unmap-stale pass must stay quiet.
    store.publish(cache::canonicalTraceId(doomed, 0), 64, 0);
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(store, 4, engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

TEST(FleetStorm, StormFleetLeavesNoStaleEntries)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/3, /*seed=*/23, "storm");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 8;
    options.store.capacityBytes = 1024 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.run();

    // Every process forwards every storm's unload to the store.
    EXPECT_EQ(result.storeStats.invalidations,
              3u * config.processes);
    EXPECT_GT(result.storeStats.unmapEvictions, 0u);

    // shr-unmap-stale (among the rest) over the end state: any entry
    // of a stormed DLL that survived must postdate the invalidation.
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

TEST(SharedPasses, AttachOutsideFleetIsReported)
{
    SharedCodeStore store(cache::SharedStoreConfig{});
    const cache::ModuleUid uid = cache::moduleUidOfName("lib.dll");
    store.publish(cache::canonicalTraceId(uid, 0), 128,
                  /*process=*/5);

    // Claiming the fleet only had two processes makes process 5's
    // attach an out-of-fleet bit.
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(store, /*fleet_processes=*/2, engine);
    EXPECT_TRUE(engine.hasCheck("shr-attach-bounds"));
    EXPECT_FALSE(engine.hasCheck("shr-orphan"));
}

TEST(FleetThreaded, RacingProcessesLeaveConsistentStore)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/2, /*seed=*/99, "race");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 4; // fewer stripes -> more contention
    options.store.capacityBytes = 512 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.runThreaded();

    // Whatever the interleaving, the store's structural invariants
    // hold (collect() already ran validate(); re-derive via the
    // shr-* passes too) and the fleet-wide conservation identity
    // survives: the store's publish count is exactly the sum of the
    // publish outcomes the pipelines observed.
    std::uint64_t pipeline_publishes = 0;
    for (const sim::FleetProcessResult &process : result.processes) {
        pipeline_publishes += process.sharedTier.publishes;
        EXPECT_EQ(process.sharedTier.publishes,
                  process.sharedTier.publishedInserts +
                      process.sharedTier.publishedAttaches +
                      process.sharedTier.publishedDuplicates +
                      process.sharedTier.publishedRejects);
    }
    EXPECT_EQ(result.storeStats.publishes, pipeline_publishes);
    EXPECT_EQ(result.storeStats.invalidations,
              2u * config.processes);

    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

} // namespace
