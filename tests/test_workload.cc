/**
 * @file
 * Unit tests for benchmark profiles and the statistical workload
 * generator: determinism, structural validity, that measured log
 * properties track the profile's targets, and that every generated
 * log matches its committed digest.
 *
 * The digest tables pin each catalog profile's log at two scales and
 * two fleet configurations' logs, every field of every event plus the
 * log's metadata. On a mismatch the failure names the profile or
 * fleet and prints its new row; an intended change to what the
 * generator produces is recorded by pasting the printed rows over the
 * old ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim_identity.h"
#include "support/units.h"
#include "tracelog/lifetime.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace gencache::workload {
namespace {

BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile profile;
    profile.name = "tiny";
    profile.suite = Suite::SpecInt;
    profile.durationSec = 2.0;
    profile.finalCacheKb = 64.0;
    profile.codeExpansionPct = 500.0;
    profile.execsPerTraceMean = 10.0;
    profile.seed = 7;
    return profile;
}

BenchmarkProfile
tinyInteractiveProfile()
{
    BenchmarkProfile profile = tinyProfile();
    profile.name = "tiny-gui";
    profile.suite = Suite::Interactive;
    profile.unmapFrac = 0.2;
    profile.dllCount = 2;
    return profile;
}

TEST(Profiles, CatalogsHaveExpectedSizes)
{
    EXPECT_EQ(spec2000Profiles().size(), 26u);
    EXPECT_EQ(interactiveProfiles().size(), 12u);
    EXPECT_EQ(allProfiles().size(), 38u);
}

TEST(Profiles, Table1DurationsMatchPaper)
{
    // Table 1 of the paper.
    EXPECT_DOUBLE_EQ(findProfile("access").durationSec, 202.0);
    EXPECT_DOUBLE_EQ(findProfile("acroread").durationSec, 376.0);
    EXPECT_DOUBLE_EQ(findProfile("defrag").durationSec, 46.0);
    EXPECT_DOUBLE_EQ(findProfile("excel").durationSec, 208.0);
    EXPECT_DOUBLE_EQ(findProfile("iexplore").durationSec, 247.0);
    EXPECT_DOUBLE_EQ(findProfile("mpeg").durationSec, 257.0);
    EXPECT_DOUBLE_EQ(findProfile("outlook").durationSec, 196.0);
    EXPECT_DOUBLE_EQ(findProfile("pinball").durationSec, 372.0);
    EXPECT_DOUBLE_EQ(findProfile("powerpoint").durationSec, 173.0);
    EXPECT_DOUBLE_EQ(findProfile("solitaire").durationSec, 335.0);
    EXPECT_DOUBLE_EQ(findProfile("winzip").durationSec, 92.0);
    EXPECT_DOUBLE_EQ(findProfile("word").durationSec, 212.0);
}

TEST(Profiles, WordIsLargestInteractive)
{
    double word_kb = findProfile("word").finalCacheKb;
    for (const BenchmarkProfile &profile : interactiveProfiles()) {
        EXPECT_LE(profile.finalCacheKb, word_kb) << profile.name;
    }
    EXPECT_NEAR(word_kb, 34.2 * 1024.0, 1.0);
}

TEST(Profiles, GccIsLargestSpec)
{
    double gcc_kb = findProfile("gcc").finalCacheKb;
    for (const BenchmarkProfile &profile : spec2000Profiles()) {
        EXPECT_LE(profile.finalCacheKb, gcc_kb) << profile.name;
    }
    EXPECT_NEAR(gcc_kb, 4300.0, 1.0);
}

TEST(Profiles, MixesSumToOne)
{
    for (const BenchmarkProfile &profile : allProfiles()) {
        double sum = profile.mix.shortFrac + profile.mix.midFrac +
                     profile.mix.longFrac;
        EXPECT_NEAR(sum, 1.0, 1e-9) << profile.name;
    }
}

TEST(ProfilesDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(findProfile("no-such-benchmark"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(TraceSize, MedianNear242)
{
    Rng rng(3);
    TraceSizeModel model;
    std::vector<std::uint32_t> sizes;
    for (int i = 0; i < 10001; ++i) {
        sizes.push_back(sampleTraceSize(rng, model));
    }
    std::sort(sizes.begin(), sizes.end());
    EXPECT_NEAR(static_cast<double>(sizes[sizes.size() / 2]), 242.0,
                25.0);
    EXPECT_GE(sizes.front(), model.minBytes);
    EXPECT_LE(sizes.back(), model.maxBytes);
}

TEST(Generator, DeterministicForSeed)
{
    tracelog::AccessLog a = generateWorkload(tinyProfile());
    tracelog::AccessLog b = generateWorkload(tinyProfile());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 37) {
        EXPECT_EQ(a[i].time, b[i].time) << i;
        EXPECT_EQ(a[i].trace, b[i].trace) << i;
        EXPECT_EQ(a[i].type, b[i].type) << i;
    }
}

TEST(Generator, ProducesStructurallyValidLog)
{
    tracelog::AccessLog log = generateWorkload(tinyProfile());
    log.validate();
    EXPECT_GT(log.createdTraceCount(), 10u);
    EXPECT_EQ(log.duration(), secondsToUs(2.0));
}

TEST(Generator, CreatedBytesNearTarget)
{
    BenchmarkProfile profile = tinyProfile();
    tracelog::AccessLog log = generateWorkload(profile);
    double target = profile.finalCacheKb * 1024.0;
    EXPECT_NEAR(static_cast<double>(log.createdTraceBytes()), target,
                target * 0.15);
}

TEST(Generator, InteractiveLogHasUnloadEvents)
{
    tracelog::AccessLog log =
        generateWorkload(tinyInteractiveProfile());
    log.validate();
    std::size_t unloads = 0;
    std::uint64_t dll_bytes = 0;
    for (const tracelog::Event &event : log.events()) {
        if (event.type == tracelog::EventType::ModuleUnload) {
            ++unloads;
        }
        if (event.type == tracelog::EventType::TraceCreate &&
            event.module != 0) {
            dll_bytes += event.sizeBytes;
        }
    }
    EXPECT_EQ(unloads, 2u);
    double frac = static_cast<double>(dll_bytes) /
                  static_cast<double>(log.createdTraceBytes());
    EXPECT_NEAR(frac, 0.2, 0.06);
}

TEST(Generator, SpecLogHasNoUnloads)
{
    tracelog::AccessLog log = generateWorkload(tinyProfile());
    for (const tracelog::Event &event : log.events()) {
        EXPECT_NE(event.type, tracelog::EventType::ModuleUnload);
    }
}

TEST(Generator, NoExecutionAfterModuleUnload)
{
    tracelog::AccessLog log =
        generateWorkload(tinyInteractiveProfile());
    std::unordered_map<cache::ModuleId, TimeUs> unload_time;
    std::unordered_map<cache::TraceId, cache::ModuleId> module_of;
    for (const tracelog::Event &event : log.events()) {
        if (event.type == tracelog::EventType::ModuleUnload) {
            unload_time[event.module] = event.time;
        }
    }
    for (const tracelog::Event &event : log.events()) {
        if (event.type == tracelog::EventType::TraceCreate) {
            module_of[event.trace] = event.module;
        }
        if (event.type == tracelog::EventType::TraceExec) {
            auto mod = module_of.find(event.trace);
            ASSERT_NE(mod, module_of.end());
            auto unload = unload_time.find(mod->second);
            if (unload != unload_time.end()) {
                EXPECT_LE(event.time, unload->second)
                    << "trace " << event.trace;
            }
        }
    }
}

TEST(Generator, LifetimeShapeTracksMix)
{
    BenchmarkProfile profile = tinyProfile();
    profile.mix = {0.1, 0.1, 0.8};
    profile.seed = 11;
    tracelog::AccessLog log = generateWorkload(profile);
    tracelog::LifetimeAnalyzer analyzer(log);
    EXPECT_GT(analyzer.longLivedFraction(), 0.6);
    EXPECT_LT(analyzer.shortLivedFraction(), 0.3);
}

TEST(Generator, UShapedLifetimesForDefaults)
{
    BenchmarkProfile profile = tinyProfile();
    profile.finalCacheKb = 128.0;
    tracelog::AccessLog log = generateWorkload(profile);
    tracelog::LifetimeAnalyzer analyzer(log);
    Histogram histogram = analyzer.lifetimeHistogram();
    // The extreme buckets dominate the middle ones (Figure 6).
    double extremes =
        histogram.binFraction(0) + histogram.binFraction(4);
    double middle = histogram.binFraction(1) +
                    histogram.binFraction(2) +
                    histogram.binFraction(3);
    EXPECT_GT(extremes, middle);
}

TEST(Generator, PinEventsComeInPairsWithinWindows)
{
    BenchmarkProfile profile = tinyProfile();
    profile.pinFrac = 0.2; // exaggerate to get plenty of pins
    profile.seed = 19;
    tracelog::AccessLog log = generateWorkload(profile);
    log.validate();
    std::size_t pins = 0;
    std::size_t unpins = 0;
    std::unordered_map<cache::TraceId, TimeUs> pinned_at;
    for (const tracelog::Event &event : log.events()) {
        if (event.type == tracelog::EventType::Pin) {
            ++pins;
            pinned_at[event.trace] = event.time;
        } else if (event.type == tracelog::EventType::Unpin) {
            ++unpins;
            auto it = pinned_at.find(event.trace);
            ASSERT_NE(it, pinned_at.end());
            EXPECT_GE(event.time, it->second);
        }
    }
    EXPECT_GT(pins, 0u);
    EXPECT_EQ(pins, unpins);
}

TEST(Generator, PollutingMidProducesTwoPlateaus)
{
    BenchmarkProfile profile = tinyProfile();
    profile.mix = {0.0 + 1e-9, 1.0 - 2e-9, 0.0 + 1e-9};
    profile.pollutingMid = true;
    profile.execsPerTraceMean = 40.0;
    profile.seed = 23;
    tracelog::AccessLog log = generateWorkload(profile);
    tracelog::LifetimeAnalyzer analyzer(log);

    // Collect the execution times of one reasonably hot trace and
    // verify a dead middle third (the inter-phase gap).
    const tracelog::TraceLifetime *victim = nullptr;
    for (const auto &lifetime : analyzer.lifetimes()) {
        if (lifetime.executions > 20 &&
            lifetime.fraction(analyzer.totalTime()) > 0.55) {
            victim = &lifetime;
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    std::uint64_t middle = 0;
    std::uint64_t total = 0;
    TimeUs window = victim->lastExec - victim->firstExec;
    for (const tracelog::Event &event : log.events()) {
        if (event.type == tracelog::EventType::TraceExec &&
            event.trace == victim->trace) {
            ++total;
            double pos = static_cast<double>(
                             event.time - victim->firstExec) /
                         static_cast<double>(window);
            if (pos > 0.40 && pos < 0.60) {
                ++middle;
            }
        }
    }
    ASSERT_GT(total, 10u);
    // The middle fifth of the window holds (almost) no executions.
    EXPECT_LT(static_cast<double>(middle) /
                  static_cast<double>(total),
              0.05);
}

TEST(Generator, FootprintImpliesCodeExpansion)
{
    BenchmarkProfile profile = tinyProfile();
    tracelog::AccessLog log = generateWorkload(profile);
    double expansion = static_cast<double>(log.createdTraceBytes()) /
                       static_cast<double>(log.footprintBytes()) *
                       100.0;
    EXPECT_NEAR(expansion, profile.codeExpansionPct,
                profile.codeExpansionPct * 0.2);
}

// ---------------------------------------------------------------------
// Rejected inputs.
// ---------------------------------------------------------------------

// NaN compares false against every bound, so each double the
// generators read is checked for finiteness before its range check.
TEST(GeneratorDeath, RejectsNonFiniteProfileFields)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    using Edit = void (*)(BenchmarkProfile &, double);
    const std::pair<const char *, Edit> fields[] = {
        {"durationSec", [](BenchmarkProfile &p, double v) {
             p.durationSec = v;
         }},
        {"finalCacheKb", [](BenchmarkProfile &p, double v) {
             p.finalCacheKb = v;
         }},
        {"codeExpansionPct", [](BenchmarkProfile &p, double v) {
             p.codeExpansionPct = v;
         }},
        {"unmapFrac", [](BenchmarkProfile &p, double v) {
             p.unmapFrac = v;
         }},
        {"mix.shortFrac", [](BenchmarkProfile &p, double v) {
             p.mix.shortFrac = v;
         }},
        {"mix.midFrac", [](BenchmarkProfile &p, double v) {
             p.mix.midFrac = v;
         }},
        {"mix.longFrac", [](BenchmarkProfile &p, double v) {
             p.mix.longFrac = v;
         }},
        {"execsPerTraceMean", [](BenchmarkProfile &p, double v) {
             p.execsPerTraceMean = v;
         }},
        {"hotMultiplier", [](BenchmarkProfile &p, double v) {
             p.hotMultiplier = v;
         }},
        {"clusterSpreadFrac", [](BenchmarkProfile &p, double v) {
             p.clusterSpreadFrac = v;
         }},
        {"pinFrac", [](BenchmarkProfile &p, double v) {
             p.pinFrac = v;
         }},
    };
    for (const auto &[name, edit] : fields) {
        for (double value : {nan, inf}) {
            BenchmarkProfile profile = tinyInteractiveProfile();
            edit(profile, value);
            EXPECT_EXIT(generateWorkload(profile),
                        ::testing::ExitedWithCode(1),
                        std::string("profile 'tiny-gui' ") + name +
                            " is .*not a finite number")
                << name << " = " << value;
        }
    }
}

TEST(GeneratorDeath, RejectsNonFiniteFleetFields)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    using Edit = void (*)(FleetWorkloadConfig &, double);
    const std::pair<const char *, Edit> fields[] = {
        {"sharedLibKb", [](FleetWorkloadConfig &c, double v) {
             c.sharedLibKb = v;
         }},
        {"privateKb", [](FleetWorkloadConfig &c, double v) {
             c.privateKb = v;
         }},
        {"adoptFrac", [](FleetWorkloadConfig &c, double v) {
             c.adoptFrac = v;
         }},
        {"durationSec", [](FleetWorkloadConfig &c, double v) {
             c.durationSec = v;
         }},
        {"execsPerTraceMean", [](FleetWorkloadConfig &c, double v) {
             c.execsPerTraceMean = v;
         }},
    };
    for (const auto &[name, edit] : fields) {
        FleetWorkloadConfig config;
        config.processes = 1;
        edit(config, nan);
        EXPECT_EXIT(generateFleetWorkload(config),
                    ::testing::ExitedWithCode(1),
                    std::string("fleet ") + name +
                        " is .*not a finite number")
            << name;
    }
}

// ---------------------------------------------------------------------
// sortEvents against std::stable_sort.
// ---------------------------------------------------------------------

/** The reference order sortEvents() must reproduce: std::stable_sort
 *  by time, then by this rank. */
int
referenceRank(tracelog::EventType type)
{
    switch (type) {
      case tracelog::EventType::ModuleLoad: return 0;
      case tracelog::EventType::TraceCreate: return 1;
      case tracelog::EventType::TraceExec: return 2;
      case tracelog::EventType::Pin: return 3;
      case tracelog::EventType::Unpin: return 4;
      case tracelog::EventType::ModuleUnload: return 5;
    }
    return 6;
}

void
referenceSort(std::vector<tracelog::Event> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const tracelog::Event &a,
                        const tracelog::Event &b) {
                         if (a.time != b.time) {
                             return a.time < b.time;
                         }
                         return referenceRank(a.type) <
                                referenceRank(b.type);
                     });
}

/** @p n events of all six types at times drawn from [lo, hi]; each
 *  carries its emission index as its trace id, so a reordered tie
 *  shows. */
std::vector<tracelog::Event>
randomEvents(Rng &rng, std::size_t n, TimeUs lo, TimeUs hi)
{
    std::vector<tracelog::Event> events(n);
    for (std::size_t i = 0; i < n; ++i) {
        tracelog::Event &event = events[i];
        event.type = static_cast<tracelog::EventType>(
            rng.uniformInt(0, 5));
        event.time = lo + static_cast<TimeUs>(rng.uniformInt(
                              0, static_cast<std::int64_t>(hi - lo)));
        event.trace = i;
        event.sizeBytes = static_cast<std::uint32_t>(i * 7);
        event.module = static_cast<cache::ModuleId>(i % 5);
    }
    return events;
}

/** Expect sortEvents() to put @p events where std::stable_sort does,
 *  every field of every event. */
void
expectSortsLikeStableSort(std::vector<tracelog::Event> events,
                          const std::string &what)
{
    std::vector<tracelog::Event> expected = events;
    referenceSort(expected);
    sortEvents(events);
    ASSERT_EQ(events.size(), expected.size()) << what;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const tracelog::Event &a = events[i];
        const tracelog::Event &b = expected[i];
        ASSERT_TRUE(a.type == b.type && a.time == b.time &&
                    a.trace == b.trace && a.sizeBytes == b.sizeBytes &&
                    a.module == b.module)
            << what << ": slot " << i << " holds emission " << a.trace
            << ", std::stable_sort put emission " << b.trace << " there";
    }
}

TEST(SortEvents, MatchesStableSortWithHeavyTies)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        for (std::size_t n : {0u, 1u, 2u, 2047u, 2048u, 2049u}) {
            for (TimeUs hi : {TimeUs{0}, TimeUs{3}, TimeUs{n / 8},
                              TimeUs{5'000'000}}) {
                expectSortsLikeStableSort(
                    randomEvents(rng, n, 0, hi),
                    "seed " + std::to_string(seed) + ", n " +
                        std::to_string(n) + ", times to " +
                        std::to_string(hi));
            }
        }
        // Enough events for every digit of a long run's key to sort.
        expectSortsLikeStableSort(
            randomEvents(rng, 100'000, 0, 400'000'000),
            "seed " + std::to_string(seed) + ", 100000 events");
    }
}

TEST(SortEvents, OneTimeOneTypeKeepsEmissionOrder)
{
    // Every key is equal, so every digit pass is skipped and the
    // reference leaves the emission order as it is.
    Rng rng(5);
    std::vector<tracelog::Event> events =
        randomEvents(rng, 2049, 123'456, 123'456);
    for (tracelog::Event &event : events) {
        event.type = tracelog::EventType::TraceExec;
    }
    expectSortsLikeStableSort(events, "one time, one type");
}

TEST(SortEvents, MatchesStableSortAtTheLastKeyBit)
{
    // 2049 events need 12 index bits, leaving 52 key bits: times
    // below 2^49 still pack.
    const TimeUs top = (TimeUs{1} << 49) - 1;
    Rng rng(7);
    std::vector<tracelog::Event> events =
        randomEvents(rng, 2049, top - 3, top);
    std::vector<tracelog::Event> low = randomEvents(rng, 2049, 0, 3);
    for (std::size_t i = 0; i < events.size(); i += 2) {
        events[i].time = low[i].time; // both ends of the key range
    }
    expectSortsLikeStableSort(events, "times to 2^49 - 1");
}

TEST(SortEventsDeath, RejectsWordsWiderThan64Bits)
{
    Rng rng(7);
    std::vector<tracelog::Event> events =
        randomEvents(rng, 2049, 0, 3);
    events[100].time = TimeUs{1} << 49;
    EXPECT_EXIT(sortEvents(events), ::testing::ExitedWithCode(1),
                "cannot sort 2049 events with times up to "
                "562949953421312 us");
}

// ---------------------------------------------------------------------
// Committed log digests.
// ---------------------------------------------------------------------

/** The fields of a log a digest covers beside its events. */
struct LogFields
{
    TimeUs duration = 0;
    std::uint64_t footprintBytes = 0;
    std::uint64_t createdTraceBytes = 0;
    std::uint64_t createdTraceCount = 0;
    /** (local module, uid), in module order. */
    std::vector<std::pair<cache::ModuleId, cache::ModuleUid>> moduleUids;
};

LogFields
fieldsOf(const tracelog::AccessLog &log)
{
    LogFields fields;
    fields.duration = log.duration();
    fields.footprintBytes = log.footprintBytes();
    fields.createdTraceBytes = log.createdTraceBytes();
    fields.createdTraceCount = log.createdTraceCount();
    fields.moduleUids.assign(log.moduleUids().begin(),
                             log.moduleUids().end());
    std::sort(fields.moduleUids.begin(), fields.moduleUids.end());
    return fields;
}

/** Add one log to @p hash: the event count, each event's five
 *  fields, then @p fields in declaration order. */
void
addLog(identity::Fnv1a &hash, const std::vector<tracelog::Event> &events,
       const LogFields &fields)
{
    hash.add(events.size());
    for (const tracelog::Event &event : events) {
        hash.add(static_cast<std::uint64_t>(event.type));
        hash.add(event.time);
        hash.add(event.trace);
        hash.add(event.sizeBytes);
        hash.add(event.module);
    }
    hash.add(fields.duration);
    hash.add(fields.footprintBytes);
    hash.add(fields.createdTraceBytes);
    hash.add(fields.createdTraceCount);
    hash.add(fields.moduleUids.size());
    for (const auto &[module, uid] : fields.moduleUids) {
        hash.add(module);
        hash.add(uid);
    }
}

/** A committed log, or fleet of logs: event count and digest. */
struct LogDigest
{
    std::size_t events = 0;
    std::uint64_t digest = 0;

    bool operator==(const LogDigest &) const = default;
};

LogDigest
digestOf(const std::vector<tracelog::AccessLog> &logs)
{
    identity::Fnv1a hash;
    LogDigest result;
    for (const tracelog::AccessLog &log : logs) {
        addLog(hash, log.events(), fieldsOf(log));
        result.events += log.size();
    }
    result.digest = hash.value();
    return result;
}

std::string
digestText(const LogDigest &digest)
{
    return "{" + std::to_string(digest.events) + ", " +
           identity::hexDigest(digest.digest) + "}";
}

/** One catalog profile's committed logs at the two scales. */
struct GoldenProfileLogs
{
    const char *label; ///< the profile name
    LogDigest small;   ///< at scale 0.03, methodology's scale
    LogDigest quarter; ///< at scale 0.25, as GENCACHE_SCALE=0.25
};

const GoldenProfileLogs kGoldenLogs[] = {
    {"gzip", {41416, 0x3b559493c0e290d9}, {118314, 0xe1529647f7c65fad}},
    {"vpr", {2076, 0x4c0617259db65d8d}, {11668, 0x9d9fa87e768f4223}},
    {"gcc", {43162, 0xd6f86611ac1a20fe}, {417109, 0x3bc8ca3ee08f73c6}},
    {"mcf", {21883, 0xce8a7ed836d23bb5}, {56431, 0x91d58acb5a4adec3}},
    {"crafty", {147015, 0x4ba7d5f86b207676},
     {1152942, 0x3e47abbd554f2259}},
    {"parser", {17602, 0xe775a177f2bbfc33}, {166472, 0x34a4f994910cb471}},
    {"eon", {2783, 0xd92bf3d9efb9bf60}, {30374, 0xef148e43c1fdc5be}},
    {"perlbmk", {16866, 0x7f4ab89b5ad06ccf}, {147756, 0x243cf3f4ad8c83a5}},
    {"gap", {18533, 0xc29b824152bc68fb}, {176975, 0xf7f384e3d8686939}},
    {"vortex", {31680, 0xda7c90d8440a8619}, {294140, 0x048e48f61eb46855}},
    {"bzip2", {33471, 0x60d8864d9f8ddbd5}, {92656, 0x939c885ed9445298}},
    {"twolf", {19954, 0x303ca8d5baef1175}, {141887, 0x7cc2aeced9908543}},
    {"wupwise", {29199, 0xef48544e1107b4fe}, {81315, 0xd6886fe2e40f7fc5}},
    {"swim", {28087, 0xd7b64274a96fd2c8}, {51875, 0x787babd74d1ecaaa}},
    {"mgrid", {41484, 0x6b22da2bf20d4299}, {73710, 0x27825577fc56d447}},
    {"applu", {1328, 0x45c08963b0043f65}, {7198, 0x591d5afb7f6079d0}},
    {"mesa", {25133, 0xf2489569d05c6523}, {168554, 0xdbbba0a018bb150b}},
    {"galgel", {15208, 0xe593c97a842164fe}, {111030, 0x3ace6d294c676fd1}},
    {"art", {21182, 0x637f938b0904d2a1}, {30387, 0x33a6ba92db3fbae0}},
    {"equake", {19079, 0x7ae2dbb9f899052f}, {83652, 0x76ddc319cffcc600}},
    {"facerec", {18592, 0x815fa9ff75be3b99}, {91367, 0xe7a9fd01e7a45b45}},
    {"ammp", {12022, 0x6445cfb81d83ac1e}, {80674, 0x7161fbf3851d478e}},
    {"lucas", {21847, 0x68e6691fbe222feb}, {63143, 0xdf3895640b88c5d9}},
    {"fma3d", {21284, 0xd2e6fa26f679e04a}, {212637, 0x9540d94fa09f732f}},
    {"sixtrack", {21492, 0xaa14aadbce2517bc},
     {190377, 0x56a7f4a2133a0974}},
    {"apsi", {17334, 0x6c871c04781deb8c}, {139141, 0xcd2998445e0d0a4b}},
    {"access", {63770, 0x755aa81805fe291e}, {561283, 0x89e5e6261c84b32d}},
    {"acroread", {107187, 0xadaba93e32271884},
     {901199, 0x516c228f40d0c8ed}},
    {"defrag", {17017, 0x1d0341079b03e723}, {133033, 0x4fd2b52a62550fe9}},
    {"excel", {90514, 0x0333a54a66109fd8}, {736819, 0x1f3a7a4aada6df1f}},
    {"iexplore", {94925, 0x1bf509b83ebf12a9},
     {832971, 0xa5d36f824ff3d912}},
    {"mpeg", {50471, 0x29228d3a609ef3db}, {414214, 0xc3aeb20752f9898b}},
    {"outlook", {79923, 0x9d794b70993b831d}, {639248, 0x88a67343ec593c9a}},
    {"pinball", {58186, 0x79bf91979b0f9653}, {495799, 0xef7dad6eff2d2c2d}},
    {"powerpoint", {78049, 0x1121183e40ce3048},
     {670406, 0x91961b0182591c77}},
    {"solitaire", {9658, 0xa574b2a167bcaaeb}, {74766, 0x85c3f0ef090db9bf}},
    {"winzip", {29662, 0xec1a6dd453f69fe1}, {244023, 0x123a8c927b09484c}},
    {"word", {146073, 0xcc242278103236f6}, {1249306, 0x8a98fd48c72fd6cd}},
};

// Every catalog profile's log, at the methodology scale and at
// quarter scale, must reproduce its committed digest.
TEST(Generator, LogsMatchCommittedDigests)
{
    for (const BenchmarkProfile &profile : allProfiles()) {
        const LogDigest small = digestOf(
            {generateWorkload(identity::scaledProfile(profile, 0.03))});
        const LogDigest quarter = digestOf(
            {generateWorkload(identity::scaledProfile(profile, 0.25))});
        const GoldenProfileLogs *golden =
            identity::findRow(kGoldenLogs, profile.name);
        const std::string head = "    {\"" + profile.name + "\", " +
                                 digestText(small) + ",";
        const std::string tail = digestText(quarter) + "},";
        EXPECT_TRUE(golden != nullptr && small == golden->small &&
                    quarter == golden->quarter)
            << profile.name << " does not match a committed row. If "
            << "the change is intended, its row in kGoldenLogs "
            << "becomes:\n"
            << head
            << (head.size() + 1 + tail.size() > 75 ? "\n     " : " ")
            << tail;
    }
}

/** One fleet configuration's committed logs, every process in
 *  order. */
struct GoldenFleetLogs
{
    const char *label;
    LogDigest logs;
};

const GoldenFleetLogs kGoldenFleetLogs[] = {
    {"default", {1897079, 0xa77a87c5723744a8}},
    {"default, 3 unmap storms", {1897127, 0xe50b59e59af54a8b}},
};

TEST(Generator, FleetLogsMatchCommittedDigests)
{
    const std::pair<const char *, FleetWorkloadConfig> fleets[] = {
        {"default", FleetWorkloadConfig{}},
        {"default, 3 unmap storms", {.unmapStorms = 3}},
    };
    for (const auto &[label, config] : fleets) {
        const LogDigest logs = digestOf(generateFleetWorkload(config));
        const GoldenFleetLogs *golden =
            identity::findRow(kGoldenFleetLogs, label);
        EXPECT_TRUE(golden != nullptr && logs == golden->logs)
            << label << " does not match a committed row. If the "
            << "change is intended, its row in kGoldenFleetLogs "
            << "becomes:\n    {\"" << label << "\", "
            << digestText(logs) << "},";
    }
}

// Changing any one hashed field, or the event count, moves the
// digest: a committed row stands for every field it claims to cover.
TEST(Generator, DigestCoversEveryField)
{
    const tracelog::AccessLog log =
        generateWorkload(tinyInteractiveProfile());
    const std::vector<tracelog::Event> events = log.events();
    const LogFields fields = fieldsOf(log);
    ASSERT_GT(events.size(), 2u);
    ASSERT_EQ(fields.moduleUids.size(), 3u);

    const auto digest = [](const std::vector<tracelog::Event> &e,
                           const LogFields &f) {
        identity::Fnv1a hash;
        addLog(hash, e, f);
        return hash.value();
    };
    const std::uint64_t base = digest(events, fields);

    using EventEdit = void (*)(tracelog::Event &);
    const std::pair<const char *, EventEdit> eventEdits[] = {
        {"type", [](tracelog::Event &e) {
             e.type = e.type == tracelog::EventType::TraceExec
                          ? tracelog::EventType::Pin
                          : tracelog::EventType::TraceExec;
         }},
        {"time", [](tracelog::Event &e) { ++e.time; }},
        {"trace", [](tracelog::Event &e) { ++e.trace; }},
        {"sizeBytes", [](tracelog::Event &e) { ++e.sizeBytes; }},
        {"module", [](tracelog::Event &e) { ++e.module; }},
    };
    for (const auto &[name, edit] : eventEdits) {
        std::vector<tracelog::Event> changed = events;
        edit(changed[events.size() / 2]);
        EXPECT_NE(digest(changed, fields), base) << "event " << name;
    }
    std::vector<tracelog::Event> shorter(events.begin(),
                                         events.end() - 1);
    EXPECT_NE(digest(shorter, fields), base) << "event count";

    using FieldEdit = void (*)(LogFields &);
    const std::pair<const char *, FieldEdit> fieldEdits[] = {
        {"duration", [](LogFields &f) { ++f.duration; }},
        {"footprintBytes", [](LogFields &f) { ++f.footprintBytes; }},
        {"createdTraceBytes",
         [](LogFields &f) { ++f.createdTraceBytes; }},
        {"createdTraceCount",
         [](LogFields &f) { ++f.createdTraceCount; }},
        {"module id", [](LogFields &f) { ++f.moduleUids[1].first; }},
        {"module uid", [](LogFields &f) { ++f.moduleUids[1].second; }},
        {"module count", [](LogFields &f) { f.moduleUids.pop_back(); }},
    };
    for (const auto &[name, edit] : fieldEdits) {
        LogFields changed = fields;
        edit(changed);
        EXPECT_NE(digest(events, changed), base) << name;
    }
}

} // namespace
} // namespace gencache::workload
