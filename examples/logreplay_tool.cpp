/**
 * @file
 * Log workflow tool: generate an access log from a profile (or from a
 * live run of the dynamic optimizer), save it, reload it, and replay
 * it — the exact methodology of the paper's evaluation.
 *
 * Usage:
 *   logreplay_tool generate <benchmark> <path.gclog|path.gclogb>
 *   logreplay_tool live <seed> <path.gclog|path.gclogb>
 *   logreplay_tool replay <path> [capacityKb]
 *   logreplay_tool info <path>
 *
 * Options:
 *   --format v1|v2   binary format version written by generate/live
 *                    to .gclogb paths (default v2; text paths and
 *                    loading are unaffected — the reader negotiates
 *                    the version from the file's magic).
 *
 * <seed> is a whole decimal number; capacityKb a finite number > 0
 * (omit it for the paper's 50%-of-maxCache point). Malformed values
 * and unknown options are usage errors (exit 2). replay drives the
 * per-event CacheSimulator over the loaded log: one pass needs no
 * compiled form.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "codecache/unified_cache.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "support/format.h"
#include "support/rng.h"
#include "tracelog/lifetime.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace gencache;

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  logreplay_tool generate <benchmark> <path>\n"
                 "  logreplay_tool live <seed> <path>\n"
                 "  logreplay_tool replay <path> [capacityKb]\n"
                 "  logreplay_tool info <path>\n"
                 "options:\n"
                 "  --format v1|v2  binary version for generate/live"
                 " (default v2)\n");
    return 2;
}

/** Parse all of @p text as a capacity in KB: finite, > 0, and at
 *  least one byte that fits in 64 bits (0 bytes would mean an
 *  unbounded cache). */
bool
parseCapacityKb(const std::string &text, std::uint64_t &bytes)
{
    char *end = nullptr;
    double kb = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(kb)) {
        return false;
    }
    double scaled = kb * 1024.0;
    if (scaled < 1.0 || scaled >= 0x1p64) {
        return false;
    }
    bytes = static_cast<std::uint64_t>(scaled);
    return true;
}

int
cmdGenerate(const std::string &benchmark, const std::string &path,
            int binary_version)
{
    workload::BenchmarkProfile profile =
        workload::findProfile(benchmark);
    // Scale the biggest profiles down for example purposes.
    if (profile.finalCacheKb > 2048.0) {
        profile.finalCacheKb = 2048.0;
        profile.durationSec = std::min(profile.durationSec, 20.0);
    }
    tracelog::AccessLog log = workload::generateWorkload(profile);
    log.validate();
    tracelog::saveLog(log, path, binary_version);
    std::printf("wrote %llu events (%llu traces, %s) to %s\n",
                static_cast<unsigned long long>(log.size()),
                static_cast<unsigned long long>(
                    log.createdTraceCount()),
                humanBytes(log.createdTraceBytes()).c_str(),
                path.c_str());
    return 0;
}

int
cmdLive(std::uint64_t seed, const std::string &path,
        int binary_version)
{
    guest::SyntheticProgramConfig config;
    config.seed = seed;
    config.phases = 3;
    config.phaseIterations = 50;
    config.innerIterations = 30;
    config.dllCount = 2;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    cache::UnifiedCacheManager manager(0); // unbounded, like the paper
    runtime::Runtime runtime(space, manager, 20);
    runtime.start(synthetic.program.entry());
    runtime.run();

    const tracelog::AccessLog &log = runtime.log();
    log.validate();
    tracelog::saveLog(log, path, binary_version);
    std::printf("live run: %llu instructions, %s residency; wrote "
                "%llu events to %s\n",
                static_cast<unsigned long long>(
                    runtime.stats().totalInstructions()),
                percent(runtime.stats().cacheResidency()).c_str(),
                static_cast<unsigned long long>(log.size()),
                path.c_str());
    return 0;
}

/** Replay @p path against a unified cache of @p capacity bytes;
 *  0 picks the paper's 50%-of-maxCache pressure point. */
int
cmdReplay(const std::string &path, std::uint64_t capacity)
{
    tracelog::AccessLog log = tracelog::loadLog(path);
    if (capacity == 0) {
        cache::UnifiedCacheManager unbounded(0);
        sim::CacheSimulator pre(unbounded);
        capacity = sim::managedCapacityBytes(pre.run(log).peakBytes);
    }

    cache::UnifiedCacheManager manager(capacity);
    sim::CacheSimulator simulator(manager);
    sim::SimResult result = simulator.run(log);
    std::printf("replayed '%s' against %s\n", log.benchmark().c_str(),
                manager.name().c_str());
    std::printf("lookups %llu, misses %llu (%s), evict+regen "
                "overhead %s instructions\n",
                static_cast<unsigned long long>(result.lookups),
                static_cast<unsigned long long>(result.misses),
                percent(result.missRate(), 2).c_str(),
                withCommas(static_cast<std::int64_t>(
                    result.overhead.total())).c_str());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    tracelog::AccessLog log = tracelog::loadLog(path);
    tracelog::LifetimeAnalyzer analyzer(log);
    std::printf("benchmark:  %s\n", log.benchmark().c_str());
    std::printf("duration:   %.2f s\n", usToSeconds(log.duration()));
    std::printf("events:     %llu\n",
                static_cast<unsigned long long>(log.size()));
    std::printf("traces:     %llu (%s)\n",
                static_cast<unsigned long long>(
                    log.createdTraceCount()),
                humanBytes(log.createdTraceBytes()).c_str());
    std::printf("footprint:  %s\n",
                humanBytes(log.footprintBytes()).c_str());
    std::printf("short-lived %s, long-lived %s\n",
                percent(analyzer.shortLivedFraction()).c_str(),
                percent(analyzer.longLivedFraction()).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel the options off; what remains are the positional
    // arguments, so every pre-flag invocation works unchanged.
    int binary_version = 2;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--format") {
            if (i + 1 >= argc) {
                return usage();
            }
            std::string value = argv[++i];
            if (value == "v1") {
                binary_version = 1;
            } else if (value == "v2") {
                binary_version = 2;
            } else {
                return usage();
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "logreplay_tool: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            args.push_back(arg);
        }
    }
    if (args.size() < 2) {
        return usage();
    }
    const std::string &command = args[0];
    if (command == "generate" && args.size() == 3) {
        return cmdGenerate(args[1], args[2], binary_version);
    }
    if (command == "live" && args.size() == 3) {
        std::uint64_t seed = 0;
        if (!parseSeed(args[1], seed)) {
            std::fprintf(stderr,
                         "logreplay_tool: <seed> wants a whole decimal "
                         "number, got '%s'\n",
                         args[1].c_str());
            return usage();
        }
        return cmdLive(seed, args[2], binary_version);
    }
    if (command == "replay" &&
        (args.size() == 2 || args.size() == 3)) {
        std::uint64_t capacity = 0;
        if (args.size() == 3 && !parseCapacityKb(args[2], capacity)) {
            std::fprintf(stderr,
                         "logreplay_tool: capacityKb wants a finite "
                         "number > 0, got '%s'\n",
                         args[2].c_str());
            return usage();
        }
        return cmdReplay(args[1], capacity);
    }
    if (command == "info" && args.size() == 2) {
        return cmdInfo(args[1]);
    }
    return usage();
}
