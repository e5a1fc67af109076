/**
 * @file
 * Statistical access-log generation from benchmark profiles.
 *
 * The generator turns a BenchmarkProfile into a concrete, time-ordered
 * AccessLog with the same structure DynamoRIO's verbose logs gave the
 * paper's cache simulator:
 *
 *  - trace sizes are lognormal around the paper's 242-byte median;
 *  - trace creations stream in until the created-byte volume implied
 *    by the profile's unbounded-cache target is reached;
 *  - each trace receives a lifetime class (short / mid / long, Fig 6)
 *    determining its activity window, and a heavy-tailed execution
 *    count (long-lived loop traces execute hotMultiplier times more);
 *  - executions cluster around working-set centers inside the window,
 *    giving the temporal locality real programs exhibit;
 *  - interactive profiles host part of their traces in transient DLL
 *    modules with load/unload windows, producing the program-forced
 *    evictions of Fig 4;
 *  - a small fraction of traces is pinned briefly (undeletable
 *    traces, §4.2).
 *
 * Events are emitted per trace as 16-byte EventRecords beside a
 * per-log trace table (each trace's canonical id, size and module,
 * indexed by the trace's ordinal), then put in log order by one stable
 * LSD radix sort of the records on their key, time * 8 + rank. The
 * rank places simultaneous events legally (load, create, exec, pin,
 * unpin, unload); equal keys keep emission order. Event times stay
 * below 2^61 so the key fits in 64 bits: a profile or fleet whose
 * duration does not is fatal() before its microseconds are computed.
 *
 * The sorted records are assembled either into an AccessLog
 * (generateWorkload) or, through tracelog::CompiledLog::Builder, with
 * a flat ordinal -> dense id table, straight into the compiled log
 * (generateCompiledWorkload); both describe the same log.
 *
 * Deterministic: a profile (including its seed) always yields the
 * identical log; tests/test_workload.cc pins every catalog profile's
 * log by committed digests.
 */

#ifndef GENCACHE_WORKLOAD_GENERATOR_H
#define GENCACHE_WORKLOAD_GENERATOR_H

#include "support/rng.h"
#include "tracelog/compiled_log.h"
#include "tracelog/event.h"
#include "workload/profile.h"

namespace gencache::workload {

/** Generate the access log of @p profile. */
tracelog::AccessLog generateWorkload(const BenchmarkProfile &profile);

/** Generate the log of @p profile compiled: equal, column for column,
 *  to tracelog::CompiledLog::compile(generateWorkload(profile)). */
tracelog::CompiledLog
generateCompiledWorkload(const BenchmarkProfile &profile);

/**
 * A fleet of interactive guest processes sharing DLLs.
 *
 * Each of the K processes gets its own AccessLog: a private
 * executable (uid salted per process) plus `sharedDlls` fleet-shared
 * libraries whose *names* — and therefore module uids — coincide
 * across processes. Each shared library's trace layout (sizes and
 * image offsets) is derived from an Rng seeded by the library's uid
 * alone, so every process that adopts a trace derives the identical
 * canonical (uid, offset) id — the coincidence the cross-process
 * shared store deduplicates. Processes differ in which subset of each
 * library they adopt and in their execution timing/volume.
 *
 * `unmapStorms` schedules fleet-wide churn: at each storm time every
 * process unloads one shared DLL and remaps it moments later
 * (plugin/extension reload behavior). The creates stay in the
 * pre-storm prefix — post-storm executions regenerate through the
 * replay miss path, like the paper's Fig 4 program-forced evictions.
 */
struct FleetWorkloadConfig
{
    unsigned processes = 8;
    unsigned sharedDlls = 4;
    double sharedLibKb = 160.0;  ///< trace bytes per shared library
    double privateKb = 160.0;    ///< per-process private trace bytes
    double adoptFrac = 0.75;     ///< library fraction each process runs
    double durationSec = 20.0;
    unsigned unmapStorms = 0;    ///< fleet-wide unload/remap waves
    double execsPerTraceMean = 40.0;
    std::uint64_t seed = 1;
    std::string namePrefix = "fleet";
};

/** Generate one AccessLog per fleet process (see FleetWorkloadConfig). */
std::vector<tracelog::AccessLog>
generateFleetWorkload(const FleetWorkloadConfig &config);

/** Trace-size distribution parameters (lognormal, byte clamps). */
struct TraceSizeModel
{
    double medianBytes = 242.0; ///< paper's cross-benchmark median
    double sigma = 0.55;
    std::uint32_t minBytes = 48;
    std::uint32_t maxBytes = 8192;
};

/** Draw one trace size. Exposed for tests. */
std::uint32_t sampleTraceSize(Rng &rng, const TraceSizeModel &model);

/**
 * One generated event before log assembly: its sort key and the trace
 * ordinal (an index into the log's trace table) of a trace event, or
 * the module of a module event. 16 bytes.
 */
struct EventRecord
{
    static constexpr int kRankBits = 3;
    /** Event times stay below this bound, so every key fits. */
    static constexpr TimeUs kTimeLimit = TimeUs{1} << (64 - kRankBits);

    /** time * 8 + rank, the rank ordering simultaneous events: load,
     *  create, exec, pin, unpin, unload. */
    std::uint64_t key = 0;
    std::uint32_t ref = 0;

    static EventRecord make(TimeUs time, tracelog::EventType type,
                            std::uint32_t ref);
    TimeUs time() const { return key >> kRankBits; }
    tracelog::EventType type() const;
};

/** Stably sort @p records by key, equal keys in their current order.
 *  Exposed for tests. */
void sortRecords(std::vector<EventRecord> &records);

} // namespace gencache::workload

#endif // GENCACHE_WORKLOAD_GENERATOR_H
