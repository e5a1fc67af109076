// The temporal invariant engine (analysis/temporal_passes): every
// injected fault class must fire its specific tmp-* check, and clean
// event streams — synthetic, recorded, or journal round-tripped, for
// every benchmark profile against every manager family — must produce
// zero findings, online and offline.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/checker.h"
#include "analysis/temporal_passes.h"
#include "codecache/generational_cache.h"
#include "codecache/tier_pipeline.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "support/units.h"
#include "tracelog/compiled_log.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace gencache;
using analysis::DiagnosticEngine;
using analysis::TemporalChecker;
using analysis::TemporalOptions;
using cache::EvictReason;
using cache::Fragment;
using cache::Generation;

Fragment
frag(cache::TraceId id, std::uint32_t size = 100,
     cache::ModuleId module = 1)
{
    Fragment fragment;
    fragment.id = id;
    fragment.sizeBytes = size;
    fragment.module = module;
    return fragment;
}

// ---------------------------------------------------------------
// Stream-local lifecycle checks (no subject bound): one synthetic
// stream per fault class, asserting the exact tmp-* ID.
// ---------------------------------------------------------------

TEST(Temporal, CleanSyntheticStreamHasNoFindings)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onMiss(1, 10);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onHit(1, Generation::Nursery, 20);
    checker.onEvict(frag(1), Generation::Nursery,
                    EvictReason::PromotionMove, 30);
    checker.onPromote(frag(1), Generation::Nursery,
                      Generation::Probation, 30);
    checker.onEvict(frag(1), Generation::Probation,
                    EvictReason::Capacity, 40);
    checker.finish();
    EXPECT_TRUE(engine.empty()) << engine.textReport();
    EXPECT_EQ(checker.eventCount(), 6u);
    EXPECT_EQ(checker.trackedResidents(), 0u);
}

TEST(Temporal, HitAfterEvictFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onEvict(frag(1), Generation::Nursery, EvictReason::Capacity,
                    20);
    checker.onHit(1, Generation::Nursery, 30);
    EXPECT_TRUE(engine.hasCheck("tmp-use-after-evict"))
        << engine.textReport();
    EXPECT_EQ(engine.size(), 1u);
}

TEST(Temporal, MissWhileResidentFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onMiss(1, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-miss-resident"))
        << engine.textReport();
    EXPECT_EQ(engine.size(), 1u);
}

TEST(Temporal, HitTierMismatchFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onHit(1, Generation::Probation, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-hit-tier-mismatch"))
        << engine.textReport();
}

TEST(Temporal, DoubleResidencyFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onInsert(frag(1), Generation::Nursery, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-double-residency"))
        << engine.textReport();
}

TEST(Temporal, EntryTierDriftFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onInsert(frag(2), Generation::Probation, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-insert-tier"))
        << engine.textReport();
}

TEST(Temporal, EvictOfAbsentTraceFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onEvict(frag(1), Generation::Nursery, EvictReason::Capacity,
                    10);
    EXPECT_TRUE(engine.hasCheck("tmp-evict-absent"))
        << engine.textReport();
}

TEST(Temporal, EvictTierMismatchFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onEvict(frag(1), Generation::Probation,
                    EvictReason::Capacity, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-evict-tier-mismatch"))
        << engine.textReport();
}

TEST(Temporal, BrokenPromotionPairFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onEvict(frag(1), Generation::Nursery,
                    EvictReason::PromotionMove, 20);
    checker.onHit(1, Generation::Nursery, 30); // pair interrupted
    EXPECT_TRUE(engine.hasCheck("tmp-promote-protocol"))
        << engine.textReport();
}

TEST(Temporal, PromoteWithoutEvictionFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onPromote(frag(1), Generation::Nursery,
                      Generation::Probation, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-promote-protocol"))
        << engine.textReport();
}

TEST(Temporal, DanglingPromotionHalfFiresAtFinish)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Nursery, 10);
    checker.onEvict(frag(1), Generation::Nursery,
                    EvictReason::PromotionMove, 20);
    checker.finish();
    EXPECT_TRUE(engine.hasCheck("tmp-promote-protocol"))
        << engine.textReport();
}

TEST(Temporal, PromotionAgainstCascadeOrderFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1), Generation::Probation, 10);
    checker.onEvict(frag(1), Generation::Probation,
                    EvictReason::PromotionMove, 20);
    checker.onPromote(frag(1), Generation::Probation,
                      Generation::Nursery, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-promote-order"))
        << engine.textReport();
}

TEST(Temporal, UnloadLeavingResidentsFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1, 100, /*module=*/7), Generation::Nursery,
                     10);
    checker.onModuleUnload(7, 20);
    EXPECT_TRUE(engine.hasCheck("tmp-unload-incomplete"))
        << engine.textReport();
}

TEST(Temporal, UnclaimedUnmapEvictionFiresAtFinish)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onInsert(frag(1, 100, /*module=*/7), Generation::Nursery,
                     10);
    checker.onModuleUnload(8, 15); // marker protocol is in use
    checker.onEvict(frag(1, 100, 7), Generation::Nursery,
                    EvictReason::Unmap, 20);
    checker.finish();
    EXPECT_TRUE(engine.hasCheck("tmp-unload-window"))
        << engine.textReport();
}

TEST(Temporal, UnmapMarkerOutsideWindowFires)
{
    TemporalOptions options;
    options.unloadWindowEvents = 3;
    DiagnosticEngine engine;
    TemporalChecker checker(engine, options);
    checker.onInsert(frag(1, 100, /*module=*/7), Generation::Nursery,
                     10);
    checker.onModuleUnload(8, 15);
    checker.onEvict(frag(1, 100, 7), Generation::Nursery,
                    EvictReason::Unmap, 20);
    for (int i = 0; i < 4; ++i) {
        checker.onMiss(99, 30 + i); // filler events age the window
    }
    EXPECT_TRUE(engine.hasCheck("tmp-unload-window"))
        << engine.textReport();
    // The late marker must not also claim completeness violations.
    checker.onModuleUnload(7, 50);
    EXPECT_FALSE(engine.hasCheck("tmp-unload-incomplete"))
        << engine.textReport();
}

TEST(Temporal, TimestampRegressionFires)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.onMiss(1, 100);
    checker.onMiss(2, 50);
    EXPECT_TRUE(engine.hasCheck("tmp-time-regression"))
        << engine.textReport();
}

TEST(Temporal, PerCheckCapLimitsMaterializedFindings)
{
    TemporalOptions options;
    options.maxPerCheck = 2;
    DiagnosticEngine engine;
    TemporalChecker checker(engine, options);
    for (int i = 0; i < 10; ++i) {
        checker.onEvict(frag(100 + i), Generation::Nursery,
                        EvictReason::Capacity, 10 + i);
    }
    EXPECT_EQ(engine.findingsOf("tmp-evict-absent").size(), 2u);
}

// ---------------------------------------------------------------
// Corruption of real recorded streams: replay a benchmark against a
// real generational pipeline, record the event stream, mutate it, and
// feed a checker bound to the final pipeline state. Each corruption
// class must surface through its specific check.
// ---------------------------------------------------------------

struct Rec
{
    enum class Kind { Miss, Hit, Insert, Evict, Promote, Unload };
    Kind kind = Kind::Miss;
    Fragment fragment;
    cache::TraceId id = 0;
    Generation gen = Generation::Unified;
    Generation to = Generation::Unified;
    EvictReason reason = EvictReason::Capacity;
    cache::ModuleId module = 0;
    TimeUs time = 0;
};

class RecordingListener : public cache::CacheEventListener
{
  public:
    RecordingListener() : cache::CacheEventListener(true, true) {}

    void onMiss(cache::TraceId id, TimeUs now) override
    {
        events.push_back(
            Rec{Rec::Kind::Miss, {}, id, {}, {}, {}, 0, now});
    }
    void onHit(cache::TraceId id, Generation gen, TimeUs now) override
    {
        events.push_back(
            Rec{Rec::Kind::Hit, {}, id, gen, {}, {}, 0, now});
    }
    void onInsert(const Fragment &fragment, Generation gen,
                  TimeUs now) override
    {
        events.push_back(
            Rec{Rec::Kind::Insert, fragment, 0, gen, {}, {}, 0, now});
    }
    void onEvict(const Fragment &fragment, Generation gen,
                 EvictReason reason, TimeUs now) override
    {
        events.push_back(Rec{Rec::Kind::Evict, fragment, 0, gen, {},
                             reason, 0, now});
    }
    void onPromote(const Fragment &fragment, Generation from,
                   Generation to, TimeUs now) override
    {
        events.push_back(Rec{Rec::Kind::Promote, fragment, 0, from, to,
                             {}, 0, now});
    }
    void onModuleUnload(cache::ModuleId module, TimeUs now) override
    {
        events.push_back(
            Rec{Rec::Kind::Unload, {}, 0, {}, {}, {}, module, now});
    }

    std::vector<Rec> events;
};

void
feed(TemporalChecker &checker, const Rec &rec)
{
    switch (rec.kind) {
      case Rec::Kind::Miss:
        checker.onMiss(rec.id, rec.time);
        break;
      case Rec::Kind::Hit:
        checker.onHit(rec.id, rec.gen, rec.time);
        break;
      case Rec::Kind::Insert:
        checker.onInsert(rec.fragment, rec.gen, rec.time);
        break;
      case Rec::Kind::Evict:
        checker.onEvict(rec.fragment, rec.gen, rec.reason, rec.time);
        break;
      case Rec::Kind::Promote:
        checker.onPromote(rec.fragment, rec.gen, rec.to, rec.time);
        break;
      case Rec::Kind::Unload:
        checker.onModuleUnload(rec.module, rec.time);
        break;
    }
}

workload::BenchmarkProfile
smallProfile(const char *name)
{
    workload::BenchmarkProfile profile = workload::findProfile(name);
    profile.finalCacheKb *= 0.1;
    profile.durationSec *= 0.1;
    if (profile.finalCacheKb < 16.0) {
        profile.finalCacheKb = 16.0;
    }
    if (profile.durationSec < 0.25) {
        profile.durationSec = 0.25;
    }
    return profile;
}

/** Replay mpeg (has module unloads) against a generational pipeline
 *  as a one-lane pass, recording both the event stream (in the
 *  compiled log's dense ids, the ids the pipeline holds) and the
 *  final pipeline. */
struct RecordedRun
{
    RecordedRun()
        : manager(cache::GenerationalConfig::fromProportions(
              64 * kKiB, 0.45, 0.10, /*threshold=*/1))
    {
        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(
                workload::generateWorkload(smallProfile("mpeg")));
        sim::BatchedReplay replay(compiled);
        replay.addLane(manager, &recorder);
        replay.run();
    }

    cache::GenerationalCacheManager manager;
    RecordingListener recorder;
};

const RecordedRun &
recordedRun()
{
    static const RecordedRun run;
    return run;
}

/** Feed @p events (post-mutation) to a fresh checker bound to the
 *  recorded run's final pipeline and return the findings. */
DiagnosticEngine
replayMutated(const std::vector<Rec> &events)
{
    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.bindSubject(&recordedRun().manager);
    for (const Rec &rec : events) {
        feed(checker, rec);
    }
    checker.finish();
    return engine;
}

std::size_t
findIndex(const std::vector<Rec> &events,
          const std::function<bool(const Rec &)> &want)
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (want(events[i])) {
            return i;
        }
    }
    ADD_FAILURE() << "recorded stream lacks the wanted event";
    return events.size();
}

TEST(TemporalRecorded, StreamIsInterestingEnoughToCorrupt)
{
    const std::vector<Rec> &events = recordedRun().recorder.events;
    ASSERT_GT(events.size(), 1000u);
    std::size_t promotes = 0;
    std::size_t unloads = 0;
    std::size_t unmaps = 0;
    for (const Rec &rec : events) {
        promotes += rec.kind == Rec::Kind::Promote;
        unloads += rec.kind == Rec::Kind::Unload;
        unmaps += rec.kind == Rec::Kind::Evict &&
                  rec.reason == EvictReason::Unmap;
    }
    EXPECT_GT(promotes, 0u);
    EXPECT_GT(unloads, 0u);
    EXPECT_GT(unmaps, 0u);
}

TEST(TemporalRecorded, UncorruptedStreamIsClean)
{
    DiagnosticEngine engine =
        replayMutated(recordedRun().recorder.events);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

TEST(TemporalRecorded, DroppedDestructiveEvictDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    // Pick an eviction whose trace never comes back; dropping it
    // leaves the checker believing the trace resident to the end.
    const std::size_t victim =
        findIndex(events, [&events](const Rec &rec) {
            if (rec.kind != Rec::Kind::Evict ||
                rec.reason != EvictReason::Capacity) {
                return false;
            }
            for (const Rec &later : events) {
                if (later.kind == Rec::Kind::Insert &&
                    later.fragment.id == rec.fragment.id &&
                    later.time >= rec.time) {
                    return false;
                }
            }
            return true;
        });
    ASSERT_LT(victim, events.size());
    events.erase(events.begin() +
                 static_cast<std::ptrdiff_t>(victim));
    DiagnosticEngine engine = replayMutated(events);
    // The checker still believes the trace resident: the end-state
    // reconciliation and the flow conservation both break.
    EXPECT_TRUE(engine.hasCheck("tmp-leak")) << engine.textReport();
    EXPECT_TRUE(engine.hasCheck("tmp-flow")) << engine.textReport();
}

TEST(TemporalRecorded, DroppedInsertDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    // Drop the insert of a trace that is later evicted, so the stream
    // evicts a trace it never admitted.
    const std::size_t insert =
        findIndex(events, [&events](const Rec &rec) {
            if (rec.kind != Rec::Kind::Insert) {
                return false;
            }
            for (const Rec &later : events) {
                if (later.kind == Rec::Kind::Evict &&
                    later.fragment.id == rec.fragment.id &&
                    later.time >= rec.time) {
                    return true;
                }
            }
            return false;
        });
    ASSERT_LT(insert, events.size());
    events.erase(events.begin() +
                 static_cast<std::ptrdiff_t>(insert));
    DiagnosticEngine engine = replayMutated(events);
    EXPECT_FALSE(engine.empty());
    EXPECT_TRUE(engine.hasCheck("tmp-evict-absent") ||
                engine.hasCheck("tmp-use-after-evict") ||
                engine.hasCheck("tmp-miss-resident"))
        << engine.textReport();
    EXPECT_TRUE(engine.hasCheck("tmp-flow")) << engine.textReport();
}

TEST(TemporalRecorded, DuplicatedInsertDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    const std::size_t insert =
        findIndex(events, [](const Rec &rec) {
            return rec.kind == Rec::Kind::Insert;
        });
    ASSERT_LT(insert, events.size());
    events.insert(events.begin() +
                      static_cast<std::ptrdiff_t>(insert),
                  events[insert]);
    DiagnosticEngine engine = replayMutated(events);
    EXPECT_TRUE(engine.hasCheck("tmp-double-residency"))
        << engine.textReport();
}

TEST(TemporalRecorded, DuplicatedEvictDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    const std::size_t evict =
        findIndex(events, [](const Rec &rec) {
            return rec.kind == Rec::Kind::Evict &&
                   rec.reason == EvictReason::Capacity;
        });
    ASSERT_LT(evict, events.size());
    events.insert(events.begin() +
                      static_cast<std::ptrdiff_t>(evict) + 1,
                  events[evict]);
    DiagnosticEngine engine = replayMutated(events);
    EXPECT_TRUE(engine.hasCheck("tmp-evict-absent"))
        << engine.textReport();
}

TEST(TemporalRecorded, ReorderedPromotionPairDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    const std::size_t promote =
        findIndex(events, [](const Rec &rec) {
            return rec.kind == Rec::Kind::Promote;
        });
    ASSERT_LT(promote, events.size());
    ASSERT_GT(promote, 0u);
    std::swap(events[promote - 1], events[promote]);
    DiagnosticEngine engine = replayMutated(events);
    EXPECT_TRUE(engine.hasCheck("tmp-promote-protocol"))
        << engine.textReport();
}

TEST(TemporalRecorded, DroppedUnloadMarkerDetected)
{
    std::vector<Rec> events = recordedRun().recorder.events;
    const std::size_t unload =
        findIndex(events, [](const Rec &rec) {
            return rec.kind == Rec::Kind::Unload;
        });
    ASSERT_LT(unload, events.size());
    events.erase(events.begin() +
                 static_cast<std::ptrdiff_t>(unload));
    DiagnosticEngine engine = replayMutated(events);
    EXPECT_TRUE(engine.hasCheck("tmp-unload-window"))
        << engine.textReport();
}

// A replay lane hands its probe the compiled log's dense ids. Bound
// with the log's originalIds(), the checker still cross-checks the
// pipeline in dense ids, but its findings quote the log's own ids.
TEST(TemporalRecorded, BoundFindingsQuoteTheLogsTraceIds)
{
    using tracelog::Event;
    tracelog::AccessLog log;
    log.setBenchmark("quoted-ids");
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::traceCreate(1, 4242, 64, 1));
    log.append(Event::traceCreate(2, 777, 64, 1));
    log.setDuration(2);
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    std::unique_ptr<cache::TierPipeline> pipeline =
        cache::findTierTopology("2tier")->build(2 * kKiB);

    DiagnosticEngine engine;
    TemporalChecker checker(engine);
    checker.bindSubject(pipeline.get(), &compiled.originalIds());
    sim::BatchedReplay replay(compiled);
    replay.addLane(*pipeline, &checker);
    replay.run();
    ASSERT_TRUE(engine.empty()) << engine.textReport();

    // Dense id 1 is trace 777, resident: insert it again.
    checker.onInsert(frag(1), pipeline->tierLabel(0), 3);
    const std::vector<analysis::Diagnostic> findings =
        engine.findingsOf("tmp-double-residency");
    ASSERT_EQ(findings.size(), 1u) << engine.textReport();
    EXPECT_EQ(findings[0].location, "trace 777");
}

// ---------------------------------------------------------------
// Fast-replay sidecar reconciliation.
// ---------------------------------------------------------------

TEST(TemporalSidecar, CleanFastReplayRunIsClean)
{
    std::unique_ptr<cache::TierPipeline> pipeline =
        cache::findTierTopology("2tier")->build(2 * kKiB);

    TemporalOptions options;
    options.observeHitsMisses = false; // stay fast-path eligible
    DiagnosticEngine engine;
    TemporalChecker checker(engine, options);
    checker.bindSubject(pipeline.get());
    pipeline->setListener(&checker);
    ASSERT_TRUE(pipeline->enableFastReplay(/*id_bound=*/256));

    TimeUs now = 1;
    for (cache::TraceId id = 0; id < 64; ++id) {
        pipeline->insert(id, 100, /*module=*/id % 3, now++);
        if (id % 2 == 0) {
            pipeline->fastProbe(id);
        }
    }
    pipeline->flushFastCounts();
    pipeline->invalidateModule(1, now++);
    checker.finish();
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

TEST(TemporalSidecar, DesyncDetectedOnFabricatedInsert)
{
    std::unique_ptr<cache::TierPipeline> pipeline =
        cache::findTierTopology("2tier")->build(2 * kKiB);

    TemporalOptions options;
    options.observeHitsMisses = false;
    DiagnosticEngine engine;
    TemporalChecker checker(engine, options);
    checker.bindSubject(pipeline.get());
    pipeline->setListener(&checker);
    ASSERT_TRUE(pipeline->enableFastReplay(/*id_bound=*/256));

    pipeline->insert(1, 100, 0, 1);
    // A fabricated insert event for a trace the pipeline never
    // admitted: its sidecar slot stays empty, which is exactly the
    // desync the delta reconciliation must catch.
    checker.onInsert(frag(7), pipeline->tierLabel(0), 2);
    EXPECT_TRUE(engine.hasCheck("tmp-sidecar-desync"))
        << engine.textReport();
}

// ---------------------------------------------------------------
// Golden sweeps: every profile x every manager family, with the
// journal serialization round-trip in the loop (offline mode), must
// be finding-free. The gencheck CLI layers the same engine onto live
// replays (online mode); test_sim covers the GENCACHE_CHECK hook.
// ---------------------------------------------------------------

/** @p profile at the golden sweeps' size: a quarter of its volume
 *  and a tenth of its duration, with floors. */
workload::BenchmarkProfile
goldenProfile(workload::BenchmarkProfile profile)
{
    profile.finalCacheKb *= 0.25;
    profile.durationSec *= 0.1;
    if (profile.finalCacheKb < 16.0) {
        profile.finalCacheKb = 16.0;
    }
    if (profile.durationSec < 0.25) {
        profile.durationSec = 0.25;
    }
    return profile;
}

/** The five manager families of the golden sweeps at half of
 *  @p profile's volume: generational 45-10-45 thr 1, unified, and the
 *  2tier, 4tier and temp3 catalog topologies. */
std::vector<std::unique_ptr<cache::TierPipeline>>
goldenManagers(const workload::BenchmarkProfile &profile)
{
    const std::uint64_t total = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    std::vector<std::unique_ptr<cache::TierPipeline>> managers;
    managers.push_back(std::make_unique<cache::GenerationalCacheManager>(
        cache::GenerationalConfig::fromProportions(total, 0.45, 0.10,
                                                   /*threshold=*/1)));
    managers.push_back(std::make_unique<cache::UnifiedCacheManager>(total));
    for (const char *name : {"2tier", "4tier", "temp3"}) {
        managers.push_back(cache::findTierTopology(name)->build(total));
    }
    return managers;
}

TEST(TemporalGolden, AllProfilesAllManagersCleanOffline)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        const workload::BenchmarkProfile small = goldenProfile(profile);
        tracelog::AccessLog generated =
            workload::generateWorkload(small);

        // Journal round-trip: what gencheck --journal consumes.
        std::stringstream buffer;
        tracelog::writeBinary(generated, buffer);
        tracelog::AccessLog log = tracelog::readBinary(buffer);

        for (std::unique_ptr<cache::TierPipeline> &manager :
             goldenManagers(small)) {
            DiagnosticEngine engine;
            const std::uint64_t events = analysis::runTemporalReplay(
                log, *manager, engine);
            EXPECT_GT(events, 0u);
            EXPECT_TRUE(engine.empty())
                << profile.name << " x " << manager->name() << "\n"
                << engine.textReport();
        }
    }
}

// The same profiles and managers as lanes of one blocked pass per
// profile, each lane with its own bound checker that declines hit and
// miss events. Lanes whose pipeline allows it then replay through the
// fast sidecar while the tmp-* engine watches: sidecar reconciliation
// at every residency transition, and the flow and residency
// cross-checks at every module event (the checkpoint hook) and at the
// end.
TEST(TemporalGolden, FastReplayLanesCleanOffline)
{
    // Every family but temp3 (a temperature edge) runs fast today.
    const bool fastToday[] = {true, true, true, true, false};
    TemporalOptions options;
    options.observeHitsMisses = false;
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        const workload::BenchmarkProfile small = goldenProfile(profile);
        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(
                workload::generateWorkload(small));
        std::vector<std::unique_ptr<cache::TierPipeline>> managers =
            goldenManagers(small);
        ASSERT_EQ(managers.size(), std::size(fastToday));

        DiagnosticEngine engine;
        std::vector<std::unique_ptr<TemporalChecker>> checkers;
        sim::BatchedReplay replay(compiled);
        for (std::unique_ptr<cache::TierPipeline> &manager : managers) {
            checkers.push_back(
                std::make_unique<TemporalChecker>(engine, options));
            checkers.back()->bindSubject(manager.get(),
                                         &compiled.originalIds());
            replay.addLane(*manager, checkers.back().get());
        }
        replay.setCheckpointHook(
            [&](const cache::TierPipeline &manager, TimeUs) {
                for (std::size_t i = 0; i < managers.size(); ++i) {
                    if (managers[i].get() == &manager) {
                        checkers[i]->checkpoint();
                    }
                }
            });
        replay.run();
        for (std::size_t i = 0; i < managers.size(); ++i) {
            checkers[i]->finish();
            EXPECT_GT(checkers[i]->eventCount(), 0u);
            if (fastToday[i]) {
                EXPECT_TRUE(managers[i]->fastReplayEnabled())
                    << profile.name << " x " << managers[i]->name();
            }
        }
        EXPECT_TRUE(engine.empty())
            << profile.name << "\n" << engine.textReport();
    }
}

TEST(TemporalGolden, OnlinePhaseHookRunsCleanUnderGencacheCheck)
{
    ::setenv("GENCACHE_CHECK", "1", /*overwrite=*/1);
    tracelog::AccessLog log =
        workload::generateWorkload(smallProfile("gzip"));
    cache::GenerationalCacheManager manager(
        cache::GenerationalConfig::fromProportions(32 * kKiB, 0.45,
                                                   0.10, 1));
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    sim::BatchedReplay replay(compiled);
    ASSERT_TRUE(analysis::attachPhaseChecks(replay, manager));
    sim::SimResult result = replay.run().front(); // panics on violation
    EXPECT_GT(result.lookups, 0u);
    ::unsetenv("GENCACHE_CHECK");
}

} // namespace
