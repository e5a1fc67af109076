/**
 * @file
 * Front-end identity tests: the live runtime's access logs and
 * statistics, pinned by committed digests.
 *
 * A grid of synthetic programs — steady loops, phased programs with
 * transient DLLs, wide code footprints — runs under unbounded,
 * pressured-unified, and generational cache managers, once straight
 * through and once under a harness that unloads DLLs mid-run; a
 * program with phase-local DLLs runs under that harness too, and one
 * more run unloads and reloads a module. For each run the table below
 * commits the event count and a 64-bit FNV-1a digest of everything
 * observable: every field of every event, the log's totals, and the
 * runtime, bb-cache, and linker statistics. The rows were recorded
 * while a hash-map front end still ran beside the predecoded one, and
 * both produced every row; the tests now hold the one front end to
 * them.
 *
 * On a mismatch the failure names the run and prints its new row. An
 * intended change to what the runtime emits is recorded by pasting the
 * printed rows over the old ones.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim_identity.h"
#include "support/units.h"
#include "tracelog/event.h"

namespace gencache {
namespace {

/** Everything observable from one complete run. */
struct RunObservation
{
    std::vector<tracelog::Event> events;
    TimeUs duration = 0;
    std::uint64_t footprintBytes = 0;
    std::uint64_t createdTraceBytes = 0;
    std::uint64_t createdTraceCount = 0;
    runtime::RuntimeStats stats;
    runtime::BbCacheStats bbStats;
    runtime::LinkerStats linkStats;
};

// A new stats field must join digestOf() and the mutations of
// DigestCoversEveryComparedField.
static_assert(sizeof(runtime::RuntimeStats) == 10 * sizeof(std::uint64_t));
static_assert(sizeof(runtime::BbCacheStats) == 4 * sizeof(std::uint64_t));
static_assert(sizeof(runtime::LinkerStats) == 3 * sizeof(std::uint64_t));

/** Digest of every field of @p run, in declaration order. */
std::uint64_t
digestOf(const RunObservation &run)
{
    identity::Fnv1a hash;
    for (const tracelog::Event &event : run.events) {
        hash.add(static_cast<std::uint64_t>(event.type));
        hash.add(event.time);
        hash.add(event.trace);
        hash.add(event.sizeBytes);
        hash.add(event.module);
    }
    hash.add(run.duration);
    hash.add(run.footprintBytes);
    hash.add(run.createdTraceBytes);
    hash.add(run.createdTraceCount);

    const runtime::RuntimeStats &stats = run.stats;
    hash.add(stats.instructionsInterpreted);
    hash.add(stats.instructionsInTraces);
    hash.add(stats.contextSwitches);
    hash.add(stats.tracesBuilt);
    hash.add(stats.traceRegenerations);
    hash.add(stats.traceExecutions);
    hash.add(stats.blocksInterpreted);
    hash.add(stats.tracesOptimized);
    hash.add(stats.optimizerBytesSaved);
    hash.add(stats.optimizerInstsRemoved);

    hash.add(run.bbStats.copies);
    hash.add(run.bbStats.copiedBytes);
    hash.add(run.bbStats.hits);
    hash.add(run.bbStats.invalidations);

    hash.add(run.linkStats.linksPatched);
    hash.add(run.linkStats.linksUnpatched);
    hash.add(run.linkStats.relocations);
    return hash.value();
}

/** One committed run: its label, event count, and digest. */
struct GoldenRun
{
    const char *label;
    std::size_t events;
    std::uint64_t digest;
};

// In the DLL-unload half of the grid every DLL is still called in the
// program's last phase, so no DLL unloads and those runs match their
// straight-through twins. The phase-local runs do unload DLLs mid-run.
const GoldenRun kGoldenRuns[] = {
    {"small / unbounded", 1262, 0x69c0a37e4bdd648dULL},
    {"small / small-unified", 1262, 0x69c0a37e4bdd648dULL},
    {"small / generational", 1262, 0x64602c953e924bd8ULL},
    {"phased / unbounded", 4417, 0xf6b634ff4664071cULL},
    {"phased / small-unified", 4417, 0xe2b7dc64574a901eULL},
    {"phased / generational", 4417, 0xaf7e0f62b24afd4cULL},
    {"wide / unbounded", 3535, 0x0e33d5e907c30226ULL},
    {"wide / small-unified", 3535, 0xf1e872b0d5ea066dULL},
    {"wide / generational", 3535, 0xe3ab160e6f5b312eULL},
    {"hot-loop / unbounded", 7754, 0x1c87cc59a4dd65a9ULL},
    {"hot-loop / small-unified", 7754, 0x1c87cc59a4dd65a9ULL},
    {"hot-loop / generational", 7754, 0xd0f9e541d90bb7f6ULL},
    {"churn / unbounded", 11519, 0x43543ac235e2b14dULL},
    {"churn / small-unified", 11519, 0x7bca7d4b5049ef7eULL},
    {"churn / generational", 11519, 0x7e1d31300b21e0a5ULL},
    {"small / unbounded / dll-unloads", 1262, 0x69c0a37e4bdd648dULL},
    {"small / small-unified / dll-unloads", 1262, 0x69c0a37e4bdd648dULL},
    {"small / generational / dll-unloads", 1262, 0x64602c953e924bd8ULL},
    {"phased / unbounded / dll-unloads", 4417, 0xf6b634ff4664071cULL},
    {"phased / small-unified / dll-unloads", 4417, 0xe2b7dc64574a901eULL},
    {"phased / generational / dll-unloads", 4417, 0xaf7e0f62b24afd4cULL},
    {"wide / unbounded / dll-unloads", 3535, 0x0e33d5e907c30226ULL},
    {"wide / small-unified / dll-unloads", 3535, 0xf1e872b0d5ea066dULL},
    {"wide / generational / dll-unloads", 3535, 0xe3ab160e6f5b312eULL},
    {"hot-loop / unbounded / dll-unloads", 7754, 0x1c87cc59a4dd65a9ULL},
    {"hot-loop / small-unified / dll-unloads", 7754, 0x1c87cc59a4dd65a9ULL},
    {"hot-loop / generational / dll-unloads", 7754, 0xd0f9e541d90bb7f6ULL},
    {"churn / unbounded / dll-unloads", 11519, 0x43543ac235e2b14dULL},
    {"churn / small-unified / dll-unloads", 11519, 0x7bca7d4b5049ef7eULL},
    {"churn / generational / dll-unloads", 11519, 0x7e1d31300b21e0a5ULL},
    {"reload-after-unload", 5029, 0x813850ffba424f7dULL},
    {"phase-local / unbounded / dll-unloads", 10784, 0x8251677166c3c00cULL},
    {"phase-local / small-unified / dll-unloads", 10784,
     0xbc82d411edc9be46ULL},
    {"phase-local / generational / dll-unloads", 10784,
     0x8cba6b4bff49e81cULL},
};

/** @p run as a row of kGoldenRuns. */
std::string
tableRow(const std::string &label, const RunObservation &run)
{
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llxULL",
                  static_cast<unsigned long long>(digestOf(run)));
    return "    {\"" + label + "\", " +
           std::to_string(run.events.size()) + ", " + digest + "},";
}

/** Hold @p run to the committed row named @p label. */
void
expectGolden(const std::string &label, const RunObservation &run)
{
    for (const GoldenRun &golden : kGoldenRuns) {
        if (label == golden.label) {
            EXPECT_TRUE(run.events.size() == golden.events &&
                        digestOf(run) == golden.digest)
                << label << " no longer matches its committed digest "
                << "(" << golden.events << " events). If the change is "
                << "intended, replace its row with:\n"
                << tableRow(label, run);
            return;
        }
    }
    ADD_FAILURE() << "no committed digest for " << label
                  << "; add the row:\n" << tableRow(label, run);
}

/** Capture everything observable from @p runtime's finished run. */
RunObservation
observe(const runtime::Runtime &runtime)
{
    EXPECT_TRUE(runtime.finished());
    runtime.log().validate();

    RunObservation run;
    run.events = runtime.log().events();
    run.duration = runtime.log().duration();
    run.footprintBytes = runtime.log().footprintBytes();
    run.createdTraceBytes = runtime.log().createdTraceBytes();
    run.createdTraceCount = runtime.log().createdTraceCount();
    run.stats = runtime.stats();
    run.bbStats = runtime.bbCacheStats();
    run.linkStats = runtime.linker().stats();
    return run;
}

/** The cache-manager shapes each profile is crossed with. */
enum class ManagerShape {
    Unbounded,    ///< UnifiedCacheManager(0): no evictions
    SmallUnified, ///< pressured FIFO: evictions and regenerations
    Generational, ///< small nursery/probation/persistent pipeline
};

std::unique_ptr<cache::TierPipeline>
makeManager(ManagerShape shape)
{
    switch (shape) {
    case ManagerShape::Unbounded:
        return std::make_unique<cache::UnifiedCacheManager>(0);
    case ManagerShape::SmallUnified:
        return std::make_unique<cache::UnifiedCacheManager>(3 * kKiB);
    case ManagerShape::Generational:
        return std::make_unique<cache::GenerationalCacheManager>(
            cache::GenerationalConfig::fromProportions(3 * kKiB, 0.40,
                                                       0.30, 1));
    }
    return nullptr;
}

const char *
managerShapeName(ManagerShape shape)
{
    switch (shape) {
    case ManagerShape::Unbounded:
        return "unbounded";
    case ManagerShape::SmallUnified:
        return "small-unified";
    case ManagerShape::Generational:
        return "generational";
    }
    return "?";
}

/** One workload profile of the identity grid. */
struct Profile
{
    const char *name;
    guest::SyntheticProgramConfig config;
    std::uint32_t threshold;
};

std::vector<Profile>
profileGrid()
{
    std::vector<Profile> grid;

    guest::SyntheticProgramConfig small;
    small.seed = 7;
    small.phases = 2;
    small.phaseIterations = 8;
    small.innerIterations = 6;
    small.dllCount = 1;
    grid.push_back({"small", small, 10});

    guest::SyntheticProgramConfig phased;
    phased.seed = 21;
    phased.phases = 4;
    phased.phaseIterations = 12;
    phased.innerIterations = 8;
    phased.dllCount = 2;
    grid.push_back({"phased", phased, 10});

    guest::SyntheticProgramConfig wide;
    wide.seed = 33;
    wide.phases = 3;
    wide.functionsPerPhase = 6;
    wide.blocksPerFunction = 6;
    wide.phaseIterations = 10;
    wide.innerIterations = 8;
    wide.dllCount = 2;
    grid.push_back({"wide", wide, 10});

    guest::SyntheticProgramConfig hot;
    hot.seed = 55;
    hot.phases = 2;
    hot.sharedFunctions = 4;
    hot.phaseIterations = 15;
    hot.innerIterations = 30;
    hot.dllCount = 1;
    grid.push_back({"hot-loop", hot, 20});

    guest::SyntheticProgramConfig churn;
    churn.seed = 77;
    churn.phases = 5;
    churn.phaseIterations = 20;
    churn.innerIterations = 10;
    churn.dllCount = 3;
    grid.push_back({"churn", churn, 10});

    return grid;
}

/**
 * Run @p config to completion and capture everything observable. With
 * @p unload_dlls the harness polls the guest's phase register between
 * bounded run() slices and unmaps each transient DLL once its last
 * phase has passed — the mid-run invalidation path.
 */
RunObservation
runProgram(const guest::SyntheticProgramConfig &config,
           std::uint32_t threshold, ManagerShape shape,
           bool unload_dlls)
{
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);
    std::unique_ptr<cache::TierPipeline> manager = makeManager(shape);

    guest::AddressSpace space;
    runtime::Runtime runtime(space, *manager, threshold);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());

    if (!unload_dlls) {
        runtime.run();
    } else {
        std::vector<bool> unloaded(synthetic.dllLastPhase.size(),
                                   false);
        while (!runtime.finished()) {
            runtime.run(512);
            auto phase = static_cast<unsigned>(
                runtime.guestReg(guest::kPhaseRegister));
            for (std::size_t i = 0;
                 i < synthetic.dllLastPhase.size(); ++i) {
                if (!unloaded[i] &&
                    phase > synthetic.dllLastPhase[i].second) {
                    runtime.unloadModule(
                        synthetic.dllLastPhase[i].first);
                    unloaded[i] = true;
                }
            }
        }
    }
    return observe(runtime);
}

void
runGrid(bool unload_dlls)
{
    const ManagerShape shapes[] = {ManagerShape::Unbounded,
                                   ManagerShape::SmallUnified,
                                   ManagerShape::Generational};
    for (const Profile &profile : profileGrid()) {
        for (ManagerShape shape : shapes) {
            std::string label = std::string(profile.name) + " / " +
                                managerShapeName(shape);
            if (unload_dlls) {
                label += " / dll-unloads";
            }
            expectGolden(label,
                         runProgram(profile.config, profile.threshold,
                                    shape, unload_dlls));
        }
    }
}

TEST(FrontendIdentity, AllProfilesAndManagersMatch) { runGrid(false); }

TEST(FrontendIdentity, MidRunDllUnloadsMatch) { runGrid(true); }

TEST(FrontendIdentity, PhaseLocalDllUnloadsMatch)
{
    // One phase-local function per phase, spread round-robin over
    // three DLLs, so two DLLs see their last call before the final
    // phase and the harness unmaps them mid-run.
    guest::SyntheticProgramConfig config;
    config.seed = 91;
    config.phases = 6;
    config.functionsPerPhase = 1;
    config.sharedFunctions = 6;
    config.blocksPerFunction = 10;
    config.phaseIterations = 12;
    config.innerIterations = 8;
    config.dllCount = 3;
    for (ManagerShape shape : {ManagerShape::Unbounded,
                               ManagerShape::SmallUnified,
                               ManagerShape::Generational}) {
        std::string label = std::string("phase-local / ") +
                            managerShapeName(shape) + " / dll-unloads";
        RunObservation run = runProgram(config, 10, shape, true);
        std::size_t unloads = 0;
        for (const tracelog::Event &event : run.events) {
            unloads += event.type == tracelog::EventType::ModuleUnload;
        }
        EXPECT_EQ(unloads, 2u) << label;
        expectGolden(label, run);
    }
}

TEST(FrontendIdentity, PredecodedIsTheDefaultFrontEnd)
{
    // The flat per-block tables grow with the block index: after every
    // load, each block id handed out so far has a dispatch slot.
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(profileGrid()[1].config);
    cache::UnifiedCacheManager manager(0);
    guest::AddressSpace space;
    runtime::Runtime runtime(space, manager);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
        EXPECT_GT(space.blockIndex().blockLimit(), 0u);
        EXPECT_GE(runtime.dispatchTable().size(),
                  space.blockIndex().blockLimit());
    }
}

TEST(FrontendIdentity, ReloadAfterUnloadStaysIdentical)
{
    // Remapping a module assigns fresh dense block ids; the run must
    // stay pinned across the id turnover.
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
    EXPECT_TRUE(runtime.finished());

    ASSERT_FALSE(synthetic.dllLastPhase.empty());
    guest::ModuleId dll = synthetic.dllLastPhase[0].first;
    runtime.unloadModule(dll);
    for (const auto &module : synthetic.program.modules()) {
        if (module->id() == dll) {
            runtime.loadModule(*module);
        }
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    expectGolden("reload-after-unload", observe(runtime));
}

TEST(FrontendIdentity, DigestCoversEveryComparedField)
{
    // The committed digests replace a field-by-field comparison, so
    // changing any one of those fields must change the digest.
    const Profile profile = profileGrid()[0];
    const RunObservation recorded =
        runProgram(profile.config, profile.threshold,
                   ManagerShape::Generational, false);
    ASSERT_FALSE(recorded.events.empty());
    const std::uint64_t digest = digestOf(recorded);
    const std::size_t e = recorded.events.size() / 2;

    using Mutation =
        std::pair<const char *, std::function<void(RunObservation &)>>;
    const std::vector<Mutation> mutations = {
        {"event type",
         [e](RunObservation &r) {
             r.events[e].type =
                 r.events[e].type == tracelog::EventType::Pin
                     ? tracelog::EventType::Unpin
                     : tracelog::EventType::Pin;
         }},
        {"event time", [e](RunObservation &r) { ++r.events[e].time; }},
        {"event trace", [e](RunObservation &r) { ++r.events[e].trace; }},
        {"event size",
         [e](RunObservation &r) { ++r.events[e].sizeBytes; }},
        {"event module",
         [e](RunObservation &r) { ++r.events[e].module; }},
        {"duration", [](RunObservation &r) { ++r.duration; }},
        {"footprint", [](RunObservation &r) { ++r.footprintBytes; }},
        {"created bytes",
         [](RunObservation &r) { ++r.createdTraceBytes; }},
        {"created count",
         [](RunObservation &r) { ++r.createdTraceCount; }},
        {"instructionsInterpreted",
         [](RunObservation &r) { ++r.stats.instructionsInterpreted; }},
        {"instructionsInTraces",
         [](RunObservation &r) { ++r.stats.instructionsInTraces; }},
        {"contextSwitches",
         [](RunObservation &r) { ++r.stats.contextSwitches; }},
        {"tracesBuilt",
         [](RunObservation &r) { ++r.stats.tracesBuilt; }},
        {"traceRegenerations",
         [](RunObservation &r) { ++r.stats.traceRegenerations; }},
        {"traceExecutions",
         [](RunObservation &r) { ++r.stats.traceExecutions; }},
        {"blocksInterpreted",
         [](RunObservation &r) { ++r.stats.blocksInterpreted; }},
        {"tracesOptimized",
         [](RunObservation &r) { ++r.stats.tracesOptimized; }},
        {"optimizerBytesSaved",
         [](RunObservation &r) { ++r.stats.optimizerBytesSaved; }},
        {"optimizerInstsRemoved",
         [](RunObservation &r) { ++r.stats.optimizerInstsRemoved; }},
        {"bb copies", [](RunObservation &r) { ++r.bbStats.copies; }},
        {"bb copiedBytes",
         [](RunObservation &r) { ++r.bbStats.copiedBytes; }},
        {"bb hits", [](RunObservation &r) { ++r.bbStats.hits; }},
        {"bb invalidations",
         [](RunObservation &r) { ++r.bbStats.invalidations; }},
        {"linksPatched",
         [](RunObservation &r) { ++r.linkStats.linksPatched; }},
        {"linksUnpatched",
         [](RunObservation &r) { ++r.linkStats.linksUnpatched; }},
        {"relocations",
         [](RunObservation &r) { ++r.linkStats.relocations; }},
    };
    // 5 event fields, 4 log totals, 10 + 4 + 3 statistics.
    ASSERT_EQ(mutations.size(), 5u + 4u + 17u);
    for (const auto &[field, mutate] : mutations) {
        RunObservation changed = recorded;
        mutate(changed);
        EXPECT_NE(digestOf(changed), digest) << field;
    }
}

} // namespace
} // namespace gencache
