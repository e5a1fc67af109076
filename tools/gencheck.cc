/**
 * @file
 * gencheck: the static invariant checker CLI.
 *
 * Loads one or more workloads, runs every analysis pass over the
 * resulting system state, and prints a diagnostic report. Subjects:
 *
 *  - live:generational / live:unified — a deterministic synthetic
 *    guest program executed to completion under the dynamic optimizer
 *    runtime, then checked whole-system (CFG, superblocks, link
 *    graph, cache state);
 *  - sim:<profile> — a statistical benchmark workload replayed
 *    against a generational cache as a one-lane blocked pass with the
 *    temporal invariant engine as the lane's probe, then checked at
 *    the storage level;
 *  - batched:<profile>:tN — the same workload compiled once
 *    (tracelog::CompiledLog) and streamed through the batched replay
 *    driver against one lane per standard sweep threshold; every
 *    lane's end state is checked like a sim subject. This keeps
 *    multi-lane passes honest: every lane's dense-id residency
 *    indices must leave a self-consistent storage state.
 *  - tier:<topology>:<profile> — the workload replayed against a
 *    named non-legacy tier topology (cache::namedTierTopologies: a
 *    2-tier filter, a 4-tier pipeline, a temperature-policy 3-tier),
 *    then checked at the storage level with the tier-indexed passes;
 *  - live:tier:<topology> — a synthetic guest executed under the
 *    runtime on top of a named topology pipeline, checked
 *    whole-system;
 *  - topo:<topology> — the named topology linted statically
 *    (analysis::lintTopology), no cache ever built;
 *  - fleet:store / fleet:p<N> — a small shared-DLL fleet (with one
 *    unmap storm) round-robined through sim::FleetSimulator against
 *    one SharedCodeStore; the store's end state is checked by the
 *    shr-* passes and every process's private pipeline by the
 *    storage passes;
 *  - journal:<file>:<manager> — a recorded gclog journal
 *    (--journal) replayed against the legacy generational config and
 *    every selected topology with the temporal invariant engine
 *    attached, then snapshot-checked. This is the offline temporal
 *    mode: the event stream of the whole replay is validated, not
 *    just the end state.
 *
 * The sim: and tier: subjects also run the temporal engine online
 * while they replay.
 *
 * Exit status: 0 clean (warnings and notes do not fail the run),
 * 1 when any error-severity diagnostic was reported, 2 on usage
 * errors, 3 when a subject failed to load (unreadable or malformed
 * --journal file).
 *
 * Usage:
 *   gencheck [--json FILE] [--profile NAME]... [--tier NAME]...
 *            [--journal FILE]... [--seed N] [--quiet]
 *   gencheck --list-checks
 *   gencheck --explain-fast-path [--tier NAME]...
 *
 * --profile may be given multiple times; the default set is gzip
 * (SPEC) and mpeg (interactive, exercises DLL unloads). --tier
 * selects topologies from the named catalog (default: all of them).
 * --journal switches to offline journal checking (the live/sim
 * subjects are skipped). --seed varies the synthetic guest program of
 * the live subjects; it must be a whole decimal number below 2^64
 * (no sign or blanks). --list-checks dumps the full check-ID registry
 * as JSON and exits. --explain-fast-path explains hot-slot fast-path
 * eligibility of the selected topologies and exits.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/pass.h"
#include "analysis/temporal_passes.h"
#include "analysis/topology_passes.h"
#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/batched_replay.h"
#include "sim/fleet.h"
#include "sim/sweep.h"
#include "tracelog/compiled_log.h"
#include "tracelog/serialize.h"
#include "support/format.h"
#include "support/rng.h"
#include "support/units.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace gencache;

struct SubjectReport
{
    std::string name;
    analysis::DiagnosticEngine engine;
};

guest::SyntheticProgram
makeGuestProgram(std::uint64_t seed)
{
    guest::SyntheticProgramConfig config;
    config.seed = seed;
    config.phases = 3;
    config.phaseIterations = 60;
    config.innerIterations = 30;
    config.dllCount = 2;
    return guest::generateSyntheticProgram(config);
}

/** Execute a synthetic guest to completion and check everything. */
SubjectReport
checkLiveSubject(const std::string &name, cache::TierPipeline &manager,
                 std::uint64_t seed)
{
    guest::SyntheticProgram synthetic = makeGuestProgram(seed);
    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    runtime::Runtime runtime(space, manager, /*trace_threshold=*/20);
    runtime.start(synthetic.program.entry());
    runtime.run();

    SubjectReport report;
    report.name = name;
    report.engine =
        analysis::checkRuntime(synthetic.program, runtime);
    return report;
}

/** Replay @p log against @p manager with the temporal invariant
 *  engine observing every cache event, then run the snapshot passes
 *  over the end state. Everything lands in one engine. */
analysis::DiagnosticEngine
replayWithTemporal(const tracelog::AccessLog &log,
                   cache::TierPipeline &manager)
{
    analysis::DiagnosticEngine engine;
    analysis::runTemporalReplay(log, manager, engine);
    analysis::runPasses(analysis::AnalysisInput::forManager(manager),
                        engine);
    return engine;
}

/** Replay a benchmark profile and check the cache storage state. */
SubjectReport
checkSimSubject(const workload::BenchmarkProfile &profile)
{
    tracelog::AccessLog log = workload::generateWorkload(profile);

    // The paper sizes the simulated cache at half the benchmark's
    // unbounded-cache footprint; same here so evictions, probation
    // rejections, and promotions all occur.
    auto total = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(
            total, /*nursery_frac=*/0.45, /*probation_frac=*/0.10,
            /*threshold=*/1);
    cache::GenerationalCacheManager manager(config);

    SubjectReport report;
    report.name = "sim:" + profile.name;
    report.engine = replayWithTemporal(log, manager);
    return report;
}

/** Replay a benchmark profile against a named tier topology and
 *  check the storage state through the tier-indexed passes. */
SubjectReport
checkTierSubject(const cache::TierTopology &topology,
                 const workload::BenchmarkProfile &profile)
{
    tracelog::AccessLog log = workload::generateWorkload(profile);
    auto total = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    std::unique_ptr<cache::TierPipeline> manager =
        topology.build(total);

    SubjectReport report;
    report.name = format("tier:{}:{}", topology.name, profile.name);
    report.engine = replayWithTemporal(log, *manager);
    return report;
}

/** Lint a named topology statically — no cache is ever built. */
SubjectReport
lintTopologySubject(const cache::TierTopology &topology)
{
    SubjectReport report;
    report.name = format("topo:{}", topology.name);
    analysis::lintTopology(topology, report.engine);
    return report;
}

/** Offline temporal mode: replay a loaded journal against the legacy
 *  generational config and every selected topology. */
std::vector<SubjectReport>
checkJournalSubjects(const std::string &label,
                     const tracelog::AccessLog &log,
                     const std::vector<cache::TierTopology> &topologies)
{
    // Half the recorded footprint keeps the caches under pressure;
    // hand-written journals without footprint metadata get a small
    // fixed budget instead of a degenerate zero-byte cache.
    std::uint64_t total = log.footprintBytes() / 2;
    if (total < 4 * kKiB) {
        total = 4 * kKiB;
    }

    std::vector<SubjectReport> reports;
    {
        cache::GenerationalCacheManager manager(
            cache::GenerationalConfig::fromProportions(
                total, /*nursery_frac=*/0.45,
                /*probation_frac=*/0.10, /*threshold=*/1));
        SubjectReport report;
        report.name = format("journal:{}:generational", label);
        report.engine = replayWithTemporal(log, manager);
        reports.push_back(std::move(report));
    }
    for (const cache::TierTopology &topology : topologies) {
        std::unique_ptr<cache::TierPipeline> manager =
            topology.build(total);
        SubjectReport report;
        report.name = format("journal:{}:{}", label, topology.name);
        report.engine = replayWithTemporal(log, *manager);
        reports.push_back(std::move(report));
    }
    return reports;
}

/** Stream one compiled workload through the batched replay driver —
 *  one lane per standard sweep threshold — and check every lane's
 *  end state. */
std::vector<SubjectReport>
checkBatchedSubjects(const workload::BenchmarkProfile &profile)
{
    const tracelog::CompiledLog compiled =
        workload::generateCompiledWorkload(profile);

    auto total = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();

    std::vector<std::unique_ptr<cache::GenerationalCacheManager>>
        managers;
    sim::BatchedReplay replay(compiled);
    for (std::uint32_t threshold : thresholds) {
        managers.push_back(
            std::make_unique<cache::GenerationalCacheManager>(
                cache::GenerationalConfig::fromProportions(
                    total, /*nursery_frac=*/0.45,
                    /*probation_frac=*/0.10, threshold)));
        replay.addLane(*managers.back());
    }
    replay.run();

    std::vector<SubjectReport> reports;
    for (std::size_t i = 0; i < managers.size(); ++i) {
        SubjectReport report;
        report.name = format("batched:{}:t{}", profile.name,
                             thresholds[i]);
        report.engine = analysis::checkManager(*managers[i]);
        reports.push_back(std::move(report));
    }
    return reports;
}

/** Round-robin a small shared-DLL fleet over one shared store, then
 *  check the store (shr-* passes) and every process's pipeline. */
std::vector<SubjectReport>
checkFleetSubjects(std::uint64_t seed)
{
    workload::FleetWorkloadConfig config;
    config.processes = 4;
    config.sharedDlls = 2;
    config.sharedLibKb = 48.0;
    config.privateKb = 48.0;
    config.durationSec = 8.0;
    config.unmapStorms = 1;
    config.seed = seed;
    std::vector<tracelog::AccessLog> logs =
        workload::generateFleetWorkload(config);

    std::vector<tracelog::CompiledLog> compiled;
    compiled.reserve(logs.size());
    for (const tracelog::AccessLog &log : logs) {
        compiled.push_back(tracelog::CompiledLog::compile(log));
    }

    sim::FleetOptions options;
    options.budgetBytes = 32 * kKiB;
    options.store.shards = 4;
    options.store.capacityBytes = 256 * kKiB;
    sim::FleetSimulator fleet(compiled, options);
    fleet.run();

    std::vector<SubjectReport> reports;
    {
        SubjectReport report;
        report.name = "fleet:store";
        analysis::runPasses(
            analysis::AnalysisInput::forSharedStore(
                *fleet.store(), fleet.processCount()),
            report.engine);
        reports.push_back(std::move(report));
    }
    for (unsigned p = 0; p < fleet.processCount(); ++p) {
        SubjectReport report;
        report.name = format("fleet:p{}", p);
        report.engine = analysis::checkManager(fleet.pipeline(p));
        reports.push_back(std::move(report));
    }
    return reports;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--json FILE] [--profile NAME]... "
                 "[--tier NAME]... [--journal FILE]... [--seed N] "
                 "[--quiet]\n"
                 "       %s --list-checks\n"
                 "       %s --explain-fast-path [--tier NAME]...\n",
                 argv0, argv0, argv0);
}

/** Last path component of @p path (journal subject labels). */
std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

/** The JSON schema identifier written to --json reports. Bump when
 *  the report shape changes so consumers can dispatch on it. */
constexpr const char *kJsonSchema = "gencheck/2";

/** Print every report, emit the JSON document, and map the findings
 *  to the exit status (0 clean, 1 errors). */
int
reportAndExit(const std::vector<SubjectReport> &reports,
              std::ofstream &json_out, bool quiet)
{
    std::size_t errors = 0;
    std::size_t total = 0;
    for (const SubjectReport &report : reports) {
        errors += report.engine.errorCount();
        total += report.engine.size();
        if (!quiet) {
            std::printf("== %s ==\n%s\n", report.name.c_str(),
                        report.engine.textReport().c_str());
        }
    }
    std::printf("gencheck: %zu subject%s, %zu diagnostic%s, %zu "
                "error%s\n",
                reports.size(), reports.size() == 1 ? "" : "s", total,
                total == 1 ? "" : "s", errors,
                errors == 1 ? "" : "s");

    if (json_out.is_open()) {
        json_out << "{\"schema\": \"" << kJsonSchema
                 << "\", \"subjects\": [";
        for (std::size_t i = 0; i < reports.size(); ++i) {
            if (i > 0) {
                json_out << ", ";
            }
            json_out << "{\"name\": \""
                     << analysis::jsonEscape(reports[i].name)
                     << "\", \"report\": "
                     << reports[i].engine.jsonReport() << "}";
        }
        json_out << "], \"errors\": " << errors << "}\n";
    }
    return errors > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::vector<std::string> profile_names;
    std::vector<std::string> tier_names;
    std::vector<std::string> journal_paths;
    std::uint64_t seed = 2003;
    bool quiet = false;
    bool list_checks = false;
    bool explain_fast_path = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            profile_names.push_back(argv[++i]);
        } else if (arg == "--tier" && i + 1 < argc) {
            tier_names.push_back(argv[++i]);
        } else if (arg == "--journal" && i + 1 < argc) {
            journal_paths.push_back(argv[++i]);
        } else if (arg == "--list-checks") {
            list_checks = true;
        } else if (arg == "--explain-fast-path") {
            explain_fast_path = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            const char *text = argv[++i];
            if (!parseSeed(text, seed)) {
                std::fprintf(stderr,
                             "gencheck: --seed wants a whole decimal "
                             "number, got '%s'\n",
                             text);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (list_checks) {
        std::printf("%s\n", analysis::checkRegistryJson().c_str());
        return 0;
    }
    if (profile_names.empty()) {
        profile_names = {"gzip", "mpeg"};
    }

    // Reject unknown profiles (and an unwritable report path) before
    // spending a second simulating anything; a usage error must exit
    // 2, not findProfile's fatal() mid-run.
    std::vector<workload::BenchmarkProfile> profiles;
    for (const std::string &name : profile_names) {
        bool found = false;
        for (workload::BenchmarkProfile &profile :
             workload::allProfiles()) {
            if (profile.name == name) {
                profiles.push_back(std::move(profile));
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "gencheck: unknown benchmark profile '%s'\n",
                         name.c_str());
            return 2;
        }
    }
    std::vector<cache::TierTopology> topologies;
    if (tier_names.empty()) {
        topologies = cache::namedTierTopologies();
    } else {
        for (const std::string &name : tier_names) {
            const cache::TierTopology *topology =
                cache::findTierTopology(name);
            if (topology == nullptr) {
                std::fprintf(stderr,
                             "gencheck: unknown tier topology '%s'\n",
                             name.c_str());
                return 2;
            }
            topologies.push_back(*topology);
        }
    }
    std::ofstream json_out;
    if (!json_path.empty()) {
        json_out.open(json_path);
        if (!json_out) {
            std::fprintf(stderr, "gencheck: cannot write %s\n",
                         json_path.c_str());
            return 2;
        }
    }

    if (explain_fast_path) {
        for (const cache::TierTopology &topology : topologies) {
            analysis::FastPathExplanation answer =
                analysis::explainFastReplay(topology);
            std::printf("%s: %s\n", topology.name.c_str(),
                        answer.eligible ? "eligible" : "ineligible");
            for (const std::string &blocker : answer.blockers) {
                std::printf("  - %s\n", blocker.c_str());
            }
            if (answer.eligible) {
                std::printf("  (provided %s)\n",
                            answer.listenerCaveat.c_str());
            }
        }
        return 0;
    }

    // Journals must all load before anything is checked: a missing or
    // malformed subject is a distinct failure (exit 3), not a finding.
    std::vector<tracelog::AccessLog> journals;
    for (const std::string &path : journal_paths) {
        tracelog::AccessLog log;
        std::string error;
        if (!tracelog::tryLoadLog(path, log, error)) {
            std::fprintf(stderr, "gencheck: %s\n", error.c_str());
            return 3;
        }
        journals.push_back(std::move(log));
    }

    std::vector<SubjectReport> reports;
    for (const cache::TierTopology &topology : topologies) {
        reports.push_back(lintTopologySubject(topology));
    }
    if (!journals.empty()) {
        // Offline temporal mode: check the recorded event streams
        // only; the synthetic live/sim subjects are skipped.
        for (std::size_t j = 0; j < journals.size(); ++j) {
            for (SubjectReport &report : checkJournalSubjects(
                     baseName(journal_paths[j]), journals[j],
                     topologies)) {
                reports.push_back(std::move(report));
            }
        }
        return reportAndExit(reports, json_out, quiet);
    }
    {
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(
                /*total=*/4 * kKiB, /*nursery_frac=*/0.40,
                /*probation_frac=*/0.20, /*threshold=*/1);
        cache::GenerationalCacheManager manager(config);
        reports.push_back(
            checkLiveSubject("live:generational", manager, seed));
    }
    {
        cache::UnifiedCacheManager manager(/*capacity=*/2 * kKiB);
        reports.push_back(
            checkLiveSubject("live:unified", manager, seed));
    }
    for (const cache::TierTopology &topology : topologies) {
        // The runtime constructs its manager through the topology
        // catalog too — the live path must work on any pipeline, not
        // just the two legacy adapters.
        std::unique_ptr<cache::TierPipeline> manager =
            topology.build(4 * kKiB);
        reports.push_back(checkLiveSubject(
            format("live:tier:{}", topology.name), *manager, seed));
    }
    for (const workload::BenchmarkProfile &profile : profiles) {
        reports.push_back(checkSimSubject(profile));
        for (SubjectReport &report : checkBatchedSubjects(profile)) {
            reports.push_back(std::move(report));
        }
        for (const cache::TierTopology &topology : topologies) {
            reports.push_back(checkTierSubject(topology, profile));
        }
    }
    for (SubjectReport &report : checkFleetSubjects(seed)) {
        reports.push_back(std::move(report));
    }

    return reportAndExit(reports, json_out, quiet);
}
