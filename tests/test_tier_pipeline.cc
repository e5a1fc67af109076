/**
 * @file
 * The tier-pipeline equivalence suite.
 *
 * GenerationalCacheManager and UnifiedCacheManager are thin adapters
 * over TierPipeline, and their contract is that they reproduce the
 * pre-pipeline monoliths exactly: the same SimResult fields and the
 * same listener event stream, event for event, field for field. The
 * tables below commit both as 64-bit FNV-1a digests: per replay
 * profile, the SimResult digests of three lanes, and the record count
 * and digest of four listener streams. The rows were recorded while
 * frozen copies of the monoliths still ran beside the adapters, and
 * both produced every row; the tests now hold the pipeline to them.
 *
 * On a mismatch the failure names the profile or stream and prints
 * its new row. An intended change to what the pipeline produces is
 * recorded by pasting the printed rows over the old ones.
 *
 * Also covered: the fromProportions exact-sum guarantee, pin-bit
 * survival across tier moves, the temperature promotion policy, the
 * pipeline's event-order contracts, and the non-legacy topology
 * catalog end-to-end (static checks, cost model).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checker.h"
#include "codecache/generational_cache.h"
#include "codecache/list_cache.h"
#include "codecache/tier_pipeline.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim_identity.h"
#include "support/units.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace gencache;
using identity::findRow;
using identity::hexDigest;

std::uint64_t
profileCapacity(const workload::BenchmarkProfile &profile)
{
    auto capacity = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    return capacity < 4096 ? 4096 : capacity;
}

/** Records every listener callback with every field that crosses the
 *  listener interface, for the stream digests and the event-order
 *  tests. */
class DetailedListener : public cache::CacheEventListener
{
  public:
    /** @param hits_and_misses whether to ask for hits and misses
     *  (without them a lane may serve hits from its sidecar). */
    explicit DetailedListener(bool hits_and_misses = true)
        : cache::CacheEventListener(hits_and_misses, hits_and_misses)
    {
    }

    struct Record
    {
        char kind = '?'; ///< m/h/i/e/p
        cache::TraceId trace = cache::kInvalidTrace;
        cache::Generation gen = cache::Generation::Unified;
        cache::Generation to = cache::Generation::Unified;
        cache::EvictReason reason = cache::EvictReason::Capacity;
        TimeUs time = 0;
        std::uint32_t sizeBytes = 0;
        cache::ModuleId module = cache::kNoModule;
        std::uint64_t addr = 0;
        bool pinned = false;
    };

    void onMiss(cache::TraceId id, TimeUs now) override
    {
        Record r;
        r.kind = 'm';
        r.trace = id;
        r.time = now;
        records.push_back(r);
    }
    void onHit(cache::TraceId id, cache::Generation gen,
               TimeUs now) override
    {
        Record r;
        r.kind = 'h';
        r.trace = id;
        r.gen = gen;
        r.time = now;
        records.push_back(r);
    }
    void onInsert(const cache::Fragment &frag, cache::Generation gen,
                  TimeUs now) override
    {
        records.push_back(fragRecord('i', frag, gen, gen,
                                     cache::EvictReason::Capacity,
                                     now));
    }
    void onEvict(const cache::Fragment &frag, cache::Generation gen,
                 cache::EvictReason reason, TimeUs now) override
    {
        records.push_back(fragRecord('e', frag, gen, gen, reason, now));
    }
    void onPromote(const cache::Fragment &frag, cache::Generation from,
                   cache::Generation to, TimeUs now) override
    {
        records.push_back(fragRecord('p', frag, from, to,
                                     cache::EvictReason::PromotionMove,
                                     now));
    }

    std::vector<Record> records;

  private:
    static Record fragRecord(char kind, const cache::Fragment &frag,
                             cache::Generation gen,
                             cache::Generation to,
                             cache::EvictReason reason, TimeUs now)
    {
        Record r;
        r.kind = kind;
        r.trace = frag.id;
        r.gen = gen;
        r.to = to;
        r.reason = reason;
        r.time = now;
        r.sizeBytes = frag.sizeBytes;
        r.module = frag.module;
        r.addr = frag.addr;
        r.pinned = frag.pinned;
        return r;
    }
};

/** Replay @p log against @p pipeline as a one-lane blocked pass with
 *  @p events as the lane's probe, then rewrite the recorded dense ids
 *  as the log's own trace ids. */
sim::SimResult
captureStream(const tracelog::AccessLog &log,
              cache::TierPipeline &pipeline, DetailedListener &events)
{
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    sim::BatchedReplay replay(compiled);
    replay.addLane(pipeline, &events);
    const sim::SimResult result = replay.run().front();
    for (DetailedListener::Record &record : events.records) {
        record.trace = compiled.originalId(
            static_cast<tracelog::DenseTraceId>(record.trace));
    }
    return result;
}

/** Digest of every field of every record in @p records, in order. */
std::uint64_t
streamDigest(const std::vector<DetailedListener::Record> &records)
{
    identity::Fnv1a hash;
    for (const DetailedListener::Record &r : records) {
        hash.add(static_cast<unsigned char>(r.kind));
        hash.add(r.trace);
        hash.add(static_cast<std::uint64_t>(r.gen));
        hash.add(static_cast<std::uint64_t>(r.to));
        hash.add(static_cast<std::uint64_t>(r.reason));
        hash.add(r.time);
        hash.add(r.sizeBytes);
        hash.add(r.module);
        hash.add(r.addr);
        hash.add(r.pinned ? 1u : 0u);
    }
    return hash.value();
}

/** One committed replay profile: the SimResult digests of its three
 *  lanes at profileCapacity(). */
struct GoldenProfile
{
    const char *label;     ///< the profile name
    std::uint64_t plain;   ///< generational 45-10-45 thr 1
    std::uint64_t eager;   ///< generational 33-33-33 thr 2 eager
    std::uint64_t unified; ///< unified pseudo-circular
};

const GoldenProfile kGoldenProfiles[] = {
    {"gzip", 0x2463a7132d686615, 0xc9a8323cc2bf70c5, 0xb284d213625f0887},
    {"vpr", 0xb4a4e9098a63d837, 0x8d1b6751c8d41eca, 0x23967a1267a877ca},
    {"gcc", 0xc82deb63f51fb719, 0x417414dd2e5cb2f0, 0x2012f3ea7a8a2749},
    {"mcf", 0x1d219a09b78a7160, 0xae6ee42765985d0f, 0x7409fb20cc515edb},
    {"crafty", 0x2fd7e5055d20ab80, 0x17fd8718f32a346b, 0x75c82bfee232a069},
    {"parser", 0x41ad1e1c7cd707b2, 0x82833fcd04f6db21, 0x86e74197df9cb490},
    {"eon", 0xa97dfdeb4ce69a34, 0xcec82d92146c7737, 0xd6d00f4f1992118a},
    {"perlbmk", 0x89d7c0e1fa2afa1e, 0xe0d9437b542b5368,
     0xa0f4adca67976698},
    {"gap", 0x8a762c5ad5959124, 0xe4bfc725e0bd0f42, 0x31ef472bb02cd4fd},
    {"vortex", 0x96c0bd3044322337, 0xd5694f0fc3fc4dda, 0x1abe4b1279f3a19b},
    {"bzip2", 0x0245b3551751a56f, 0x60fd79f2c1a53424, 0xf9b33e6b6989878a},
    {"twolf", 0x47122c1f4a30ac13, 0x7da4c1eb2a1d02da, 0x1bd641cb1adf3406},
    {"wupwise", 0x1f8a5c05bb9b2780, 0x7a9eddc951f9b221,
     0x912a777b3c9c20ff},
    {"swim", 0x30b8406fc6176ec9, 0xf3e7b01934c65bb5, 0xbb58c227740299b1},
    {"mgrid", 0xbbd6133c0c96a9dc, 0x49c0e7c50063f345, 0x951a4bab2b6c04a2},
    {"applu", 0x84c3e4876885d8af, 0x7c2b6e102afc94f9, 0xde1b48d2d31c7e28},
    {"mesa", 0x1bee268580eadfef, 0xf7cb0588a69ff262, 0xd5eaba25fca64e2c},
    {"galgel", 0x19c5eaad6a5e0c68, 0xf07c6e4d5981227f, 0xb6ce5c8937a9bda8},
    {"art", 0xc33aa6dc27669ed5, 0x29b7fab619e35db2, 0x8e235693eee8a6c2},
    {"equake", 0x716ccb3c691e304f, 0xa0f8db92063926c1, 0xb517031f1d1016a0},
    {"facerec", 0x7dcc07e2c221f0f9, 0xa34566ba0f1c21aa,
     0x143ba5a1a6136d31},
    {"ammp", 0x01211c77106f4506, 0xa80a71a2975491fb, 0x24067f3aa34a5fea},
    {"lucas", 0x532e75a9e3fa13f2, 0x6e2ef8e44fb03284, 0xdb1b7ccee6366fc0},
    {"fma3d", 0x7cee255d4c9e4f8b, 0xc0d2e59c874541f8, 0xc53319e9916bf49a},
    {"sixtrack", 0x9cf926f23246f862, 0x027cddc18b5355ac,
     0x30ea0f77562c06ef},
    {"apsi", 0x381cbc9d05bba3f0, 0xa253d4b3f5ee8f44, 0x67a5ff61b71ba716},
    {"access", 0xbc7cf0fd237af91d, 0x24128575ffd24a42, 0x281f9420965334d2},
    {"acroread", 0xbd7903969d1d2bfb, 0xa63dca9c870b7438,
     0x6a0e3d05c2b684f7},
    {"defrag", 0xa15e4a7b2ee3ebf2, 0xa2710e5cc0dc3e96, 0xeeff4382d2977ad3},
    {"excel", 0x7263ad1cfb999cad, 0x628d040989501f23, 0x9c2b03bd5f4e5c3b},
    {"iexplore", 0xe068411bb5486228, 0x37c7379274fcd5fa,
     0xa075f3fa315ae328},
    {"mpeg", 0xb23abfee8b6efaff, 0x238f572e5d65cbda, 0x999cb9feca1c83be},
    {"outlook", 0xd12ffe7a562c6eab, 0xa1debd41c34287c2,
     0x9d6b16bff99341b0},
    {"pinball", 0x371c90d29543d81b, 0x32243dcc97497672,
     0x9b87bda8d89c3e2d},
    {"powerpoint", 0x9c22d60188606ca2, 0xffe627612b0a6e06,
     0x38a9d2d7ecf603f8},
    {"solitaire", 0xca0b66be2721f7ee, 0x550430e4d2ac84a6,
     0x4059e6d41754a516},
    {"winzip", 0x4ee88bd996bbd367, 0xac2ce655f4382e84, 0xb94bf3acdcd14024},
    {"word", 0x8fa867b0507f5345, 0xeb5b324febc3f6d3, 0xec97be8c09082923},
};

/** @p digests (plain, eager, unified) as a row of kGoldenProfiles,
 *  wrapped before the last digest past 75 columns. */
std::string
profileRow(const std::string &profile, const std::uint64_t *digests)
{
    const std::string head = "    {\"" + profile + "\", " +
                             hexDigest(digests[0]) + ", " +
                             hexDigest(digests[1]) + ",";
    const std::string tail = hexDigest(digests[2]) + "},";
    return head + (head.size() + 1 + tail.size() > 75 ? "\n     " : " ") +
           tail;
}

// Every replay profile, one streaming pass: the generational adapter
// (plain and eager) and the unified adapter must reproduce the
// committed digest of every SimResult field and the manager name.
TEST(TierEquivalence, SimResultsBitIdenticalOnAllProfiles)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(
                workload::generateWorkload(profile));
        std::uint64_t capacity = profileCapacity(profile);

        cache::GenerationalCacheManager plain(
            cache::GenerationalConfig::fromProportions(
                capacity, 0.45, 0.10, /*threshold=*/1));
        cache::GenerationalCacheManager eager(
            cache::GenerationalConfig::fromProportions(
                capacity, 1.0 / 3.0, 1.0 / 3.0, /*threshold=*/2,
                /*eager=*/true));
        cache::UnifiedCacheManager unified(capacity);

        sim::BatchedReplay replay(compiled);
        replay.addLane(plain);
        replay.addLane(eager);
        replay.addLane(unified);
        std::vector<sim::SimResult> results = replay.run();
        ASSERT_EQ(results.size(), 3u);
        const std::uint64_t digests[] = {
            identity::digestOf(results[0]),
            identity::digestOf(results[1]),
            identity::digestOf(results[2])};

        const GoldenProfile *golden =
            findRow(kGoldenProfiles, profile.name);
        EXPECT_TRUE(golden != nullptr && digests[0] == golden->plain &&
                    digests[1] == golden->eager &&
                    digests[2] == golden->unified)
            << profile.name << " does not match a committed row. If "
            << "the change is intended, its row in kGoldenProfiles "
            << "becomes:\n"
            << profileRow(profile.name, digests);
    }
}

/** One committed listener stream: its record count and digest. */
struct GoldenStream
{
    const char *label;
    std::size_t records;
    std::uint64_t digest;
};

const GoldenStream kGoldenStreams[] = {
    {"gzip / 45-10-45 thr 1", 606199, 0x92e8e3bc514cf210},
    {"gzip / unified", 604810, 0xec069d90933e1702},
    {"mpeg / 45-10-45 thr 1", 1696336, 0x243c021415554fa8},
    {"mpeg / unified", 1640492, 0x6a35d5efc8326604},
};

// The listener event streams — order, reasons, and every fragment
// field crossing the interface — captured through a one-lane replay's
// probe, with the log's own trace ids, must match their committed
// digests.
TEST(TierEquivalence, EventStreamsBitIdentical)
{
    for (const char *name : {"gzip", "mpeg"}) {
        workload::BenchmarkProfile profile = workload::findProfile(name);
        tracelog::AccessLog log = workload::generateWorkload(profile);
        std::uint64_t capacity = profileCapacity(profile);
        cache::GenerationalCacheManager generational(
            cache::GenerationalConfig::fromProportions(capacity, 0.45,
                                                       0.10, 1));
        cache::UnifiedCacheManager unified(capacity);

        const std::pair<std::string, cache::TierPipeline *> runs[] = {
            {std::string(name) + " / 45-10-45 thr 1", &generational},
            {std::string(name) + " / unified", &unified},
        };
        for (const auto &[label, manager] : runs) {
            DetailedListener events;
            captureStream(log, *manager, events);

            const std::size_t records = events.records.size();
            const std::uint64_t digest = streamDigest(events.records);
            const GoldenStream *golden = findRow(kGoldenStreams, label);
            EXPECT_TRUE(golden != nullptr && records == golden->records &&
                        digest == golden->digest)
                << label << " does not match a committed row. If the "
                << "change is intended, its row in kGoldenStreams "
                << "becomes:\n    {\"" << label << "\", " << records
                << ", " << hexDigest(digest) << "},";
        }
    }
}

// A replay built from the AccessLog compiles it window by window; on
// logs of many windows, with module reloads and pins, each lane sees
// the stream and ends with the result it has on the whole compiled
// log, whether its probe watches hits and misses (off the sidecar)
// or not.
TEST(TierEquivalence, WindowedReplayMatchesTheWholeLog)
{
    for (const char *name : {"solitaire", "gcc"}) {
        const workload::BenchmarkProfile profile =
            identity::scaledProfile(workload::findProfile(name), 0.1);
        const tracelog::AccessLog log = workload::generateWorkload(profile);
        ASSERT_GT(log.size(), 3 * sim::BatchedReplay::kWindowEvents)
            << name;
        const std::uint64_t capacity = profileCapacity(profile);
        std::vector<std::function<std::unique_ptr<cache::TierPipeline>()>>
            builds = {
                [&] {
                    return std::make_unique<cache::GenerationalCacheManager>(
                        cache::GenerationalConfig::fromProportions(
                            capacity, 0.45, 0.10, 1));
                },
                [&] {
                    return std::make_unique<cache::UnifiedCacheManager>(
                        capacity);
                },
            };
        for (const cache::TierTopology &topology :
             cache::namedTierTopologies()) {
            builds.push_back(
                [&capacity, t = &topology] { return t->build(capacity); });
        }
        for (const auto &build : builds) {
            for (bool watch : {true, false}) {
                std::unique_ptr<cache::TierPipeline> on_whole = build();
                std::unique_ptr<cache::TierPipeline> on_windows = build();
                const std::string label =
                    std::string(name) + " / " + on_whole->name() +
                    (watch ? " / hits" : " / no hits");
                DetailedListener whole(watch);
                DetailedListener windowed(watch);
                const sim::SimResult expected =
                    captureStream(log, *on_whole, whole);

                sim::BatchedReplay replay(log);
                replay.addLane(*on_windows, &windowed);
                const sim::SimResult result = replay.run().front();
                EXPECT_EQ(on_windows->fastReplayEnabled(),
                          on_whole->fastReplayEnabled())
                    << label;
                identity::expectIdentical(result, expected, label);
                for (DetailedListener::Record &record : windowed.records) {
                    record.trace = replay.log().originalId(
                        static_cast<tracelog::DenseTraceId>(record.trace));
                }
                EXPECT_EQ(windowed.records.size(), whole.records.size())
                    << label;
                EXPECT_EQ(streamDigest(windowed.records),
                          streamDigest(whole.records))
                    << label;
            }
        }
    }
}

/** @p value with its lowest bit flipped: another value of the enum's
 *  underlying type. */
template <typename Enum>
Enum
flipped(Enum value)
{
    return static_cast<Enum>(static_cast<unsigned>(value) ^ 1u);
}

TEST(TierEquivalence, DigestCoversEveryComparedField)
{
    // The committed rows replace a field-by-field comparison, so
    // changing any one compared field must change the digest.
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    profile.durationSec *= 0.1;
    tracelog::AccessLog log = workload::generateWorkload(profile);
    cache::GenerationalCacheManager manager(
        cache::GenerationalConfig::fromProportions(
            profileCapacity(profile), 0.45, 0.10, 1));
    DetailedListener events;
    const sim::SimResult recorded = captureStream(log, manager, events);
    ASSERT_FALSE(events.records.empty());

    sim::SimResult changed = recorded;
    cache::ManagerStats &stats = changed.managerStats;
    cost::OverheadBreakdown &overhead = changed.overhead;
    const std::pair<const char *, std::uint64_t *> counters[] = {
        {"lookups", &changed.lookups},
        {"hits", &changed.hits},
        {"misses", &changed.misses},
        {"regenerations", &changed.regenerations},
        {"peakBytes", &changed.peakBytes},
        {"createdTraces", &changed.createdTraces},
        {"createdBytes", &changed.createdBytes},
        {"stats.lookups", &stats.lookups},
        {"stats.hits", &stats.hits},
        {"stats.misses", &stats.misses},
        {"stats.inserts", &stats.inserts},
        {"stats.insertedBytes", &stats.insertedBytes},
        {"stats.deletions", &stats.deletions},
        {"stats.deletedBytes", &stats.deletedBytes},
        {"stats.unmapDeletions", &stats.unmapDeletions},
        {"stats.unmapDeletedBytes", &stats.unmapDeletedBytes},
        {"stats.promotions", &stats.promotions},
        {"stats.promotedBytes", &stats.promotedBytes},
        {"stats.probationRejections", &stats.probationRejections},
        {"stats.placementFailures", &stats.placementFailures},
        {"overhead.traceGeneration", &overhead.traceGeneration},
        {"overhead.contextSwitches", &overhead.contextSwitches},
        {"overhead.evictions", &overhead.evictions},
        {"overhead.promotions", &overhead.promotions},
        {"overhead.copies", &overhead.copies},
    };
    const std::uint64_t digest = identity::digestOf(recorded);
    for (const auto &[field, value] : counters) {
        ++*value;
        EXPECT_NE(identity::digestOf(changed), digest) << field;
        --*value;
    }
    for (std::string *name : {&changed.benchmark, &changed.manager}) {
        *name += '+';
        EXPECT_NE(identity::digestOf(changed), digest) << *name;
        name->pop_back();
    }
    EXPECT_EQ(identity::digestOf(changed), digest);

    using Record = DetailedListener::Record;
    using Mutation = std::pair<const char *, void (*)(Record &)>;
    const Mutation mutations[] = {
        {"kind", [](Record &r) { r.kind = r.kind == 'h' ? 'm' : 'h'; }},
        {"trace", [](Record &r) { ++r.trace; }},
        {"gen", [](Record &r) { r.gen = flipped(r.gen); }},
        {"to", [](Record &r) { r.to = flipped(r.to); }},
        {"reason", [](Record &r) { r.reason = flipped(r.reason); }},
        {"time", [](Record &r) { ++r.time; }},
        {"sizeBytes", [](Record &r) { ++r.sizeBytes; }},
        {"module", [](Record &r) { ++r.module; }},
        {"addr", [](Record &r) { ++r.addr; }},
        {"pinned", [](Record &r) { r.pinned = !r.pinned; }},
    };
    std::vector<Record> records = events.records;
    const std::uint64_t recordsDigest = streamDigest(records);
    Record &middle = records[records.size() / 2];
    const Record saved = middle;
    for (const auto &[field, mutate] : mutations) {
        mutate(middle);
        EXPECT_NE(streamDigest(records), recordsDigest) << field;
        middle = saved;
    }
}

// --- satellite: fromProportions exact-sum guarantee ---

TEST(FromProportions, AdversarialFractionsSumExactly)
{
    // The classic adversarial case: thirds do not round to a clean
    // split, but the parts must still sum to the total.
    cache::GenerationalConfig thirds =
        cache::GenerationalConfig::fromProportions(
            1'000'000, 1.0 / 3.0, 1.0 / 3.0, 10);
    EXPECT_EQ(thirds.nurseryBytes, 333'333u);
    EXPECT_EQ(thirds.probationBytes, 333'333u);
    EXPECT_EQ(thirds.persistentBytes, 333'334u);
    EXPECT_EQ(thirds.totalBytes(), 1'000'000u);

    cache::GenerationalConfig odd =
        cache::GenerationalConfig::fromProportions(999'999, 0.45, 0.10,
                                                   1);
    EXPECT_EQ(odd.nurseryBytes, 450'000u);
    EXPECT_EQ(odd.probationBytes, 100'000u);
    EXPECT_EQ(odd.persistentBytes, 449'999u);
    EXPECT_EQ(odd.totalBytes(), 999'999u);
}

TEST(FromProportions, TinyTotalsNeverZeroByteTier)
{
    // Every feasible tiny total splits into three positive parts that
    // sum exactly; a fraction rounding to zero bytes is bumped to one.
    for (std::uint64_t total = 3; total <= 64; ++total) {
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(
                total, 1.0 / 3.0, 1.0 / 3.0, 1);
        EXPECT_GE(config.nurseryBytes, 1u) << total;
        EXPECT_GE(config.probationBytes, 1u) << total;
        EXPECT_GE(config.persistentBytes, 1u) << total;
        EXPECT_EQ(config.totalBytes(), total) << total;
    }
    for (std::uint64_t total = 3; total <= 64; ++total) {
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(total, 0.45,
                                                       0.10, 1);
        EXPECT_GE(config.nurseryBytes, 1u) << total;
        EXPECT_GE(config.probationBytes, 1u) << total;
        EXPECT_GE(config.persistentBytes, 1u) << total;
        EXPECT_EQ(config.totalBytes(), total) << total;
    }

    // A vanishing fraction still yields a one-byte tier, not a
    // zero-byte one (which the manager constructor would reject).
    cache::GenerationalConfig sliver =
        cache::GenerationalConfig::fromProportions(1'000'000, 1e-9,
                                                   1e-9, 1);
    EXPECT_EQ(sliver.nurseryBytes, 1u);
    EXPECT_EQ(sliver.probationBytes, 1u);
    EXPECT_EQ(sliver.persistentBytes, 999'998u);
}

TEST(FromProportionsDeathTest, InfeasibleTotalsStillFatal)
{
    // Two bytes cannot hold three positive tiers.
    EXPECT_DEATH(cache::GenerationalConfig::fromProportions(
                     2, 1.0 / 3.0, 1.0 / 3.0, 1),
                 "persistent");
}

TEST(FromProportionsDeathTest, NonFiniteFractionsFatal)
{
    // NaN compares false both ways, so it must fail the range checks
    // rather than slip past them into a 2^63-byte tier.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(cache::GenerationalConfig::fromProportions(
                     92'262, nan, 0.10, 1),
                 "invalid generational proportions");
    EXPECT_DEATH(cache::GenerationalConfig::fromProportions(
                     92'262, 0.45, nan, 1),
                 "invalid generational proportions");
    EXPECT_DEATH(cache::GenerationalConfig::fromProportions(
                     92'262, nan, nan, 1),
                 "invalid generational proportions");
}

// --- satellite: pin bit survives tier moves ---

TEST(PinnedPromotion, PinBitSurvivesEagerUpgrade)
{
    cache::GenerationalConfig config;
    config.nurseryBytes = 64;
    config.probationBytes = 128;
    config.persistentBytes = 256;
    config.promotionThreshold = 1;
    config.eagerPromotion = true;
    cache::GenerationalCacheManager manager(config);

    ASSERT_TRUE(manager.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(manager.insert(2, 64, cache::kNoModule, 1));
    ASSERT_EQ(manager.generationOf(1), cache::Generation::Probation);

    ASSERT_TRUE(manager.setPinned(1, true));
    ASSERT_TRUE(manager.lookup(1, 2));
    ASSERT_EQ(manager.generationOf(1), cache::Generation::Persistent);

    bool seen = false;
    manager.localCache(cache::Generation::Persistent)
        .forEach([&](const cache::Fragment &frag) {
            if (frag.id == 1) {
                seen = true;
                EXPECT_TRUE(frag.pinned)
                    << "pin bit lost crossing probation -> persistent";
            }
        });
    EXPECT_TRUE(seen);
}

TEST(PinnedPromotion, ShedHandlingClearsPinOnMove)
{
    cache::TierPipelineInit init;
    init.name = "shed-test";
    init.tiers = {
        {64, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Shed},
        {256, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
    };
    init.edges.push_back(
        std::make_unique<cache::ThresholdPolicy>(1, /*eager=*/true));
    cache::TierPipeline pipeline(std::move(init));

    ASSERT_TRUE(pipeline.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.setPinned(1, true));
    ASSERT_TRUE(pipeline.lookup(1, 1)); // eager upgrade into tier 1
    ASSERT_EQ(pipeline.tierOf(1), 1u);

    pipeline.tierCache(1).forEach([&](const cache::Fragment &frag) {
        if (frag.id == 1) {
            EXPECT_FALSE(frag.pinned) << "Shed tier kept the pin bit";
        }
    });
}

// --- event-order contracts ---

TEST(EventOrder, SingleTierVictimsPrecedeInsert)
{
    cache::TierPipelineInit init;
    init.name = "unified-order";
    init.tiers = {{128, cache::LocalPolicy::PseudoCircular,
                   cache::PinHandling::Sticky}};
    cache::TierPipeline pipeline(std::move(init));
    DetailedListener events;
    pipeline.setListener(&events);

    ASSERT_TRUE(pipeline.insert(1, 100, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.insert(2, 100, cache::kNoModule, 1));

    ASSERT_EQ(events.records.size(), 3u);
    EXPECT_EQ(events.records[0].kind, 'i');
    EXPECT_EQ(events.records[0].trace, 1u);
    // Unified order: the capacity victim is reported before the
    // insert, and the insert event carries the placed fragment.
    EXPECT_EQ(events.records[1].kind, 'e');
    EXPECT_EQ(events.records[1].trace, 1u);
    EXPECT_EQ(events.records[1].reason, cache::EvictReason::Capacity);
    EXPECT_EQ(events.records[2].kind, 'i');
    EXPECT_EQ(events.records[2].trace, 2u);
    EXPECT_EQ(events.records[2].gen, cache::Generation::Unified);
}

TEST(EventOrder, MultiTierInsertPrecedesCascade)
{
    cache::TierPipelineInit init;
    init.name = "cascade-order";
    init.tiers = {
        {64, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
        {256, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
    };
    init.edges.push_back(std::make_unique<cache::AlwaysPromotePolicy>());
    cache::TierPipeline pipeline(std::move(init));
    DetailedListener events;
    pipeline.setListener(&events);

    ASSERT_TRUE(pipeline.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.insert(2, 64, cache::kNoModule, 1));

    // Generational order: the insert is reported first, then the
    // victim cascade (evict-for-promotion + promote).
    ASSERT_EQ(events.records.size(), 4u);
    EXPECT_EQ(events.records[0].kind, 'i');
    EXPECT_EQ(events.records[0].trace, 1u);
    EXPECT_EQ(events.records[1].kind, 'i');
    EXPECT_EQ(events.records[1].trace, 2u);
    EXPECT_EQ(events.records[2].kind, 'e');
    EXPECT_EQ(events.records[2].trace, 1u);
    EXPECT_EQ(events.records[2].reason,
              cache::EvictReason::PromotionMove);
    EXPECT_EQ(events.records[3].kind, 'p');
    EXPECT_EQ(events.records[3].trace, 1u);
    EXPECT_EQ(events.records[3].to, cache::Generation::Persistent);
}

// --- tier labels ---

TEST(TierLabels, PaperVocabularyPreserved)
{
    using cache::Generation;
    EXPECT_EQ(cache::tierLabelFor(0, 1), Generation::Unified);

    EXPECT_EQ(cache::tierLabelFor(0, 3), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 3), Generation::Probation);
    EXPECT_EQ(cache::tierLabelFor(2, 3), Generation::Persistent);

    EXPECT_EQ(cache::tierLabelFor(0, 2), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 2), Generation::Persistent);

    EXPECT_EQ(cache::tierLabelFor(0, 4), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 4), Generation::Tier1);
    EXPECT_EQ(cache::tierLabelFor(2, 4), Generation::Tier2);
    EXPECT_EQ(cache::tierLabelFor(3, 4), Generation::Persistent);
}

// --- temperature policy ---

TEST(TemperaturePolicy, CounterDecaysWithVirtualTime)
{
    cache::TemperaturePolicy policy(/*threshold=*/2,
                                    /*half_life=*/100);
    cache::Fragment frag;

    policy.onEnter(frag, 1000);
    EXPECT_EQ(frag.accessCount, 0u);
    EXPECT_EQ(frag.lastAccess, 1000u);

    // Two quick hits within one half-life: no decay, count reaches
    // the threshold and a prompt eviction admits the fragment.
    EXPECT_FALSE(policy.onHit(frag, 1010));
    EXPECT_FALSE(policy.onHit(frag, 1020));
    EXPECT_EQ(frag.accessCount, 2u);
    EXPECT_TRUE(policy.admitOnEviction(frag, 1090));

    // The same burst long ago no longer earns promotion: two whole
    // half-lives quarter the counter down to zero.
    policy.onEnter(frag, 0);
    policy.onHit(frag, 10);
    policy.onHit(frag, 20);
    cache::Fragment cold = frag;
    EXPECT_FALSE(policy.admitOnEviction(cold, 250));
    EXPECT_EQ(cold.accessCount, 0u);
    // The clock advances by whole half-lives only, so the partial
    // period keeps accumulating toward the next decay step.
    EXPECT_EQ(cold.lastAccess, 200u);

    // Very long idle periods collapse the counter outright instead of
    // shifting by more bits than the counter holds.
    cache::Fragment stale;
    stale.accessCount = 1'000'000;
    stale.lastAccess = 0;
    EXPECT_FALSE(policy.admitOnEviction(stale, 100 * 64));
    EXPECT_EQ(stale.accessCount, 0u);
}

TEST(TemperaturePolicyDeathTest, ZeroHalfLifeRejected)
{
    EXPECT_DEATH(cache::TemperaturePolicy(1, 0), "half-life");
}

// --- non-legacy topologies end-to-end ---

TEST(Topology, CatalogPassesStaticChecks)
{
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    const tracelog::CompiledLog compiled = tracelog::CompiledLog::compile(
        workload::generateWorkload(profile));
    std::uint64_t capacity = profileCapacity(profile);

    for (const cache::TierTopology &topology :
         cache::namedTierTopologies()) {
        std::unique_ptr<cache::TierPipeline> manager =
            topology.build(capacity);
        EXPECT_EQ(manager->totalCapacity(), capacity)
            << topology.name;
        sim::BatchedReplay replay(compiled);
        replay.addLane(*manager);
        sim::SimResult result = replay.run().front();
        EXPECT_GT(result.managerStats.promotions, 0u) << topology.name;

        manager->validate();
        analysis::DiagnosticEngine engine =
            analysis::checkManager(*manager);
        EXPECT_EQ(engine.errorCount(), 0u)
            << topology.name << ": " << engine.textReport();
    }
}

/** Topology lanes of one blocked pass at profileCapacity(), each
 *  labelled "<profile> / <topology>". Recorded while the per-event
 *  reference loop still replayed each topology and agreed. */
const identity::DigestRow<1> kGoldenTopologies[] = {
    {"vortex / 2tier", {0x84917f255febf2c2}},
    {"vortex / 4tier", {0x88552568ef33d948}},
    {"vortex / temp3", {0x962cdf8c993db224}},
    {"gzip / 3tier-srrip", {0x7faacb0168d81e36}},
    {"gzip / 3tier-brrip", {0x96176aed62bca67f}},
};

TEST(Topology, BatchedTopologyReplayMatchesLegacyPath)
{
    sim::ExperimentRunner runner(workload::findProfile("vortex"));
    std::uint64_t capacity = profileCapacity(runner.profile());
    const std::vector<cache::TierTopology> &catalog =
        cache::namedTierTopologies();

    std::vector<sim::SimResult> batched =
        runner.runTopologyBatch(capacity, catalog);
    ASSERT_EQ(batched.size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(batched[i].manager, catalog[i].name);
        identity::expectRow(kGoldenTopologies, "kGoldenTopologies",
                            "vortex / " + catalog[i].name,
                            {identity::digestOf(batched[i])});
    }
}

TEST(Topology, ExactBudgetSplitAcrossTiers)
{
    const cache::TierTopology *four = cache::findTierTopology("4tier");
    ASSERT_NE(four, nullptr);
    for (std::uint64_t total : {7u, 101u, 4096u, 999'999u}) {
        std::vector<cache::TierSpec> specs = four->tierSpecs(total);
        ASSERT_EQ(specs.size(), 4u);
        std::uint64_t sum = 0;
        for (const cache::TierSpec &spec : specs) {
            EXPECT_GE(spec.capacityBytes, 1u) << total;
            sum += spec.capacityBytes;
        }
        EXPECT_EQ(sum, total);
    }
    EXPECT_EQ(cache::findTierTopology("no-such-topology"), nullptr);
}

cache::Fragment
rripFrag(cache::TraceId id, std::uint32_t size)
{
    cache::Fragment frag;
    frag.id = id;
    frag.sizeBytes = size;
    return frag;
}

TEST(RripCache, SrripEvictsDistantBeforeRecentlyTouched)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    EXPECT_TRUE(evicted.empty());

    // A hit predicts a near re-reference; the untouched fragment ages
    // to distant first and is the victim despite being no older.
    srrip.touch(1, 10);
    ASSERT_TRUE(srrip.insert(rripFrag(3, 50), evicted));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].id, 2u);
    EXPECT_TRUE(srrip.contains(1));
    EXPECT_TRUE(srrip.contains(3));
}

TEST(RripCache, SrripTieBreaksInInsertionOrder)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(3, 100), evicted));
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0].id, 1u);
    EXPECT_EQ(evicted[1].id, 2u);
}

TEST(RripCache, SurvivorsAgeWhenAnInsertNeedsIt)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    srrip.touch(1, 10); // rrpv 0
    ASSERT_TRUE(srrip.insert(rripFrag(3, 50), evicted)); // ages once
    const cache::Fragment *survivor = srrip.find(1);
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->rrpv, 1); // 0 + one aging step
}

TEST(RripCache, BrripPredictsDistantExceptEveryPeriodthInsert)
{
    cache::RripCache brrip(1 << 20, /*bimodal=*/true);
    std::vector<cache::Fragment> evicted;
    for (cache::TraceId id = 0;
         id < cache::RripCache::kBimodalPeriod + 1; ++id) {
        ASSERT_TRUE(brrip.insert(rripFrag(id, 8), evicted));
    }
    // Inserts 0 and kBimodalPeriod predict long; all between predict
    // distant — deterministic, no RNG.
    EXPECT_EQ(brrip.find(0)->rrpv, cache::RripCache::kMaxRrpv - 1);
    EXPECT_EQ(brrip.find(1)->rrpv, cache::RripCache::kMaxRrpv);
    EXPECT_EQ(brrip.find(cache::RripCache::kBimodalPeriod - 1)->rrpv,
              cache::RripCache::kMaxRrpv);
    EXPECT_EQ(brrip.find(cache::RripCache::kBimodalPeriod)->rrpv,
              cache::RripCache::kMaxRrpv - 1);
}

TEST(RripCache, FailedInsertLeavesResidencyAndPredictionsUnchanged)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 60), evicted));
    srrip.touch(1, 5);
    ASSERT_TRUE(srrip.setPinned(1, true));

    // Oversized fragment: rejected outright.
    EXPECT_FALSE(srrip.insert(rripFrag(2, 200), evicted));
    // Pinned congestion: no evictable plan exists.
    EXPECT_FALSE(srrip.insert(rripFrag(3, 60), evicted));

    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(srrip.stats().placementFailures, 2u);
    ASSERT_TRUE(srrip.contains(1));
    EXPECT_EQ(srrip.find(1)->rrpv, 0); // untouched by failed plans
    EXPECT_FALSE(srrip.contains(2));
    EXPECT_FALSE(srrip.contains(3));
}

TEST(RripCache, FactoryBuildsBothVariants)
{
    auto srrip = cache::makeLocalCache(cache::LocalPolicy::Srrip, 1024);
    auto brrip = cache::makeLocalCache(cache::LocalPolicy::Brrip, 1024);
    EXPECT_STREQ(srrip->policyName(), "srrip");
    EXPECT_STREQ(brrip->policyName(), "brrip");
    EXPECT_TRUE(srrip->observesTouch());
    EXPECT_TRUE(brrip->observesTouch());
    EXPECT_STREQ(cache::localPolicyName(cache::LocalPolicy::Srrip),
                 "srrip");
    EXPECT_STREQ(cache::localPolicyName(cache::LocalPolicy::Brrip),
                 "brrip");
}

// Pipeline-level: RRIP-policied topologies replay cleanly and their
// blocked lanes keep their committed rows.
TEST(Topology, RripTopologiesBatchedMatchesLegacy)
{
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    sim::ExperimentRunner runner(profile);
    std::uint64_t capacity = profileCapacity(profile);

    std::vector<cache::TierTopology> topologies;
    for (cache::LocalPolicy policy :
         {cache::LocalPolicy::Srrip, cache::LocalPolicy::Brrip}) {
        cache::TierTopology topology;
        topology.name = std::string("3tier-") +
                        cache::localPolicyName(policy);
        topology.fractions = {0.45, 0.10, 0.45};
        topology.edges.resize(2);
        topology.edges[0].rule =
            cache::EdgeSpec::Rule::AlwaysPromote;
        topology.edges[1].rule = cache::EdgeSpec::Rule::Threshold;
        topology.edges[1].threshold = 2;
        topology.policy = policy;
        topologies.push_back(std::move(topology));
    }

    std::vector<sim::SimResult> batched =
        runner.runTopologyBatch(capacity, topologies);
    ASSERT_EQ(batched.size(), topologies.size());
    for (std::size_t i = 0; i < topologies.size(); ++i) {
        EXPECT_GT(batched[i].lookups, 0u);
        identity::expectRow(kGoldenTopologies, "kGoldenTopologies",
                            "gzip / " + topologies[i].name,
                            {identity::digestOf(batched[i])});
    }
}

} // namespace
