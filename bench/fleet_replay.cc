/**
 * @file
 * Fleet replay bench: what the cross-process shared tier buys.
 *
 * Runs shared-DLL fleets (workload::generateFleetWorkload) through
 * sim::FleetSimulator three ways per configuration:
 *
 *  1. isolated — sharing off: N private pipelines, the paper's
 *     one-process world multiplied by N. This is the baseline both
 *     for memory (every process keeps its own copy of the shared
 *     libraries' traces) and for misses (every process regenerates
 *     its own shared-tier victims);
 *  2. shared, round-robin — the deterministic single-thread driver
 *     the equivalence tests use; all dedup/miss numbers come from
 *     this run so they are exactly reproducible;
 *  3. shared, threaded — one thread per process racing on the shard
 *     locks, timed against the round-robin run and reporting the
 *     store's lock-contention count.
 *
 * Headline metrics, per fleet:
 *  - dedup_saved_bytes: peak claimed-by-processes bytes minus peak
 *    resident bytes — the memory N-1 processes did NOT spend because
 *    the store already held the trace;
 *  - dedup_attaches_per_process: first-time attaches to entries some
 *    OTHER process published, per process;
 *  - regenerations avoided vs the isolated fleet.
 *
 * Writes BENCH_shared.json (BENCH_shared_smoke.json with --smoke) and
 * exits non-zero when a full run fails the acceptance gates
 * (dedup_saved_bytes > 0 and dedup_attaches_per_process > 1 on the
 * storm-free 8-process fleet).
 */

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/fleet.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/compiled_log.h"
#include "workload/generator.h"

namespace {

using namespace gencache;

struct FleetBenchCase
{
    std::string name;
    workload::FleetWorkloadConfig workload;
};

std::vector<FleetBenchCase>
benchCases(bool smoke, double factor)
{
    // office8: eight interactive processes over four shared DLLs,
    // no churn — the pure dedup story. storm8: same fleet with three
    // fleet-wide unmap storms — the invalidation story.
    workload::FleetWorkloadConfig office;
    office.processes = 8;
    office.sharedDlls = 4;
    office.sharedLibKb = 192.0;
    office.privateKb = 96.0;
    office.durationSec = 20.0;
    office.seed = 2003;
    office.namePrefix = "office";

    workload::FleetWorkloadConfig storm = office;
    storm.unmapStorms = 3;
    storm.namePrefix = "storm";
    storm.seed = 2004;

    if (smoke) {
        for (workload::FleetWorkloadConfig *config :
             {&office, &storm}) {
            config->sharedLibKb = 48.0;
            config->privateKb = 24.0;
            config->durationSec = 5.0;
        }
    } else {
        for (workload::FleetWorkloadConfig *config :
             {&office, &storm}) {
            config->sharedLibKb *= factor;
            config->privateKb *= factor;
            config->durationSec *= factor;
        }
    }
    return {{"office8", office}, {"storm8", storm}};
}

sim::FleetOptions
fleetOptions(const workload::FleetWorkloadConfig &workload,
             bool sharing)
{
    sim::FleetOptions options;
    options.sharing = sharing;
    // Private budget at half of one process's footprint (the paper's
    // pressure point), the store sized for the shared libraries.
    options.budgetBytes = static_cast<std::uint64_t>(
        (workload.sharedLibKb + workload.privateKb) *
        static_cast<double>(kKiB) / 2.0);
    options.store.shards = 8;
    options.store.capacityBytes = static_cast<std::uint64_t>(
        workload.sharedDlls * workload.sharedLibKb * 2.0 *
        static_cast<double>(kKiB));
    return options;
}

std::uint64_t
totalEvents(const std::vector<tracelog::CompiledLog> &logs)
{
    std::uint64_t events = 0;
    for (const tracelog::CompiledLog &log : logs) {
        events += log.size();
    }
    return events;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    // The smoke cases apply no scale, so --smoke stamps 1.
    const double factor = smoke ? 1.0 : bench::scaleFactor();
    const std::size_t threads = ThreadPool::defaultThreadCount();
    bench::banner("fleet replay: cross-process shared code store");

    bench::JsonArray fleets;
    bool passed = true;
    for (const FleetBenchCase &bench_case : benchCases(smoke, factor)) {
        std::vector<tracelog::AccessLog> logs =
            workload::generateFleetWorkload(bench_case.workload);
        std::vector<tracelog::CompiledLog> compiled;
        compiled.reserve(logs.size());
        for (const tracelog::AccessLog &log : logs) {
            compiled.push_back(tracelog::CompiledLog::compile(log));
        }
        const auto processes =
            static_cast<std::uint64_t>(compiled.size());

        // 1. Isolated baseline: sharing off.
        bench::WallTimer isolated_timer;
        sim::FleetSimulator isolated(
            compiled,
            fleetOptions(bench_case.workload, /*sharing=*/false));
        sim::FleetResult isolated_result = isolated.run();
        const double isolated_sec = isolated_timer.seconds();

        // 2. Shared store, deterministic round-robin.
        bench::WallTimer shared_timer;
        sim::FleetSimulator shared(
            compiled,
            fleetOptions(bench_case.workload, /*sharing=*/true));
        sim::FleetResult shared_result = shared.run();
        const double shared_sec = shared_timer.seconds();

        // 3. Shared store, one thread per process (contention).
        bench::WallTimer threaded_timer;
        sim::FleetSimulator threaded(
            compiled,
            fleetOptions(bench_case.workload, /*sharing=*/true));
        threaded.runThreaded();
        const double threaded_sec = threaded_timer.seconds();

        std::uint64_t isolated_regens = 0;
        std::uint64_t isolated_peak = 0;
        std::uint64_t shared_regens = 0;
        std::uint64_t shared_peak = 0;
        for (std::uint64_t p = 0; p < processes; ++p) {
            isolated_regens +=
                isolated_result.processes[p].sim.regenerations;
            isolated_peak +=
                isolated_result.processes[p].sim.peakBytes;
            shared_regens +=
                shared_result.processes[p].sim.regenerations;
            shared_peak += shared_result.processes[p].sim.peakBytes;
        }

        const cache::SharedStoreStats &store =
            shared_result.storeStats;
        // First-time attaches to entries some OTHER process created.
        const std::uint64_t dedup_attaches =
            store.attaches - store.inserts;
        const double attaches_per_process =
            static_cast<double>(dedup_attaches) /
            static_cast<double>(processes);
        const std::uint64_t saved =
            shared_result.dedupSavedBytes();

        std::printf("%-8s %2llu procs: dedup saves %llu bytes, "
                    "%.1f dedup attaches/proc, regenerations "
                    "%llu -> %llu, round-robin %.2fs, threaded "
                    "%.2fs (%llu lock contentions)\n",
                    bench_case.name.c_str(),
                    static_cast<unsigned long long>(processes),
                    static_cast<unsigned long long>(saved),
                    attaches_per_process,
                    static_cast<unsigned long long>(isolated_regens),
                    static_cast<unsigned long long>(shared_regens),
                    shared_sec, threaded_sec,
                    static_cast<unsigned long long>(
                        threaded.store()->stats().lockContentions));

        // Acceptance gates (full office8 run): the shared tier must
        // actually deduplicate.
        if (bench_case.workload.unmapStorms == 0 &&
            (saved == 0 || attaches_per_process <= 1.0)) {
            passed = false;
        }

        bench::JsonObject entry;
        entry.put("fleet", bench_case.name)
            .put("processes", processes)
            .put("shared_dlls",
                 static_cast<std::uint64_t>(
                     bench_case.workload.sharedDlls))
            .put("unmap_storms",
                 static_cast<std::uint64_t>(
                     bench_case.workload.unmapStorms))
            .put("events", totalEvents(compiled))
            .put("isolated_sec", isolated_sec)
            .put("shared_sec", shared_sec)
            .put("threaded_sec", threaded_sec)
            .put("isolated_regenerations", isolated_regens)
            .put("shared_regenerations", shared_regens)
            .put("isolated_peak_private_bytes", isolated_peak)
            .put("shared_peak_private_bytes", shared_peak)
            .put("store_peak_used_bytes",
                 shared_result.storePeakUsedBytes)
            .put("store_peak_claimed_bytes",
                 shared_result.storePeakClaimedBytes)
            .put("dedup_saved_bytes", saved)
            .put("store_entries", shared_result.storeEntries)
            .put("publishes", store.publishes)
            .put("inserts", store.inserts)
            .put("attaches", store.attaches)
            .put("dedup_attaches", dedup_attaches)
            .put("dedup_attaches_per_process", attaches_per_process)
            .put("probe_hits", store.probeHits)
            .put("unmap_evictions", store.unmapEvictions)
            .put("invalidations", store.invalidations)
            .put("threaded_lock_contentions",
                 threaded.store()->stats().lockContentions);
        fleets.push(entry);
    }

    bench::JsonObject artifact;
    artifact.put("bench", "fleet_replay")
        .put("smoke", smoke)
        .put("passed", passed)
        .putRaw("fleets", fleets.toString());
    if (!bench::writeJsonArtifact(smoke ? "BENCH_shared_smoke.json"
                                        : "BENCH_shared.json",
                                  artifact, factor, threads)) {
        return 1;
    }
    if (!passed) {
        std::fprintf(stderr,
                     "fleet_replay: acceptance gates FAILED "
                     "(dedup_saved_bytes > 0 and > 1 dedup "
                     "attach/process required)\n");
        return 1;
    }
    return 0;
}
