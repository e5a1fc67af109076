#include "workload/generator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "support/logging.h"
#include "support/units.h"

namespace gencache::workload {

namespace {

using tracelog::EventType;

/** Radix sort of sortRecords(): the most key bits one pass orders. */
constexpr int kMaxDigitBits = 11;

/**
 * fatal() naming @p owner and the field unless every value in
 * @p fields is finite. A NaN compares false against every bound, so
 * it would pass the range checks that follow.
 */
void
requireFinite(std::string_view owner,
              std::initializer_list<std::pair<const char *, double>>
                  fields)
{
    for (const auto &[name, value] : fields) {
        if (!std::isfinite(value)) {
            fatal("{} {} is {}, not a finite number", owner, name,
                  value);
        }
    }
}

/** Lifetime classes drawn from the profile's mixture. */
enum class LifeClass { Short, Mid, Long };

LifeClass
sampleLifeClass(Rng &rng, const LifetimeMix &mix)
{
    double draw = rng.uniform01();
    if (draw < mix.shortFrac) {
        return LifeClass::Short;
    }
    if (draw < mix.shortFrac + mix.midFrac) {
        return LifeClass::Mid;
    }
    return LifeClass::Long;
}

/** What a trace ordinal stands for: a row of a log's trace table. */
struct TraceRow
{
    cache::TraceId id = cache::kInvalidTrace;
    std::uint32_t sizeBytes = 0;
    cache::ModuleId module = cache::kNoModule;
};

/** A generated log before assembly: its metadata (an AccessLog with no
 *  events), its trace table and its records. */
struct Emission
{
    tracelog::AccessLog header;
    std::vector<TraceRow> traces;
    std::vector<EventRecord> records;

    /** Add a trace to the table. @return its ordinal. */
    std::uint32_t addTrace(cache::TraceId id, std::uint32_t size,
                           cache::ModuleId module)
    {
        traces.push_back({id, size, module});
        return static_cast<std::uint32_t>(traces.size() - 1);
    }

    void emit(TimeUs time, EventType type, std::uint32_t ref)
    {
        records.push_back(EventRecord::make(time, type, ref));
    }
};

/** Emission context shared by the helpers below. */
struct GenContext
{
    const BenchmarkProfile &profile;
    Rng &rng;
    Emission &out;
    TimeUs total;              ///< duration in virtual microseconds
    /** Per-module uid and next code offset: trace ids are canonical
     *  (module uid, offset) keys, offsets laid out cumulatively like
     *  code in the image. Indexed by local ModuleId. */
    std::vector<cache::ModuleUid> uids;
    std::vector<std::uint32_t> nextOffset;
};

/**
 * Emit one trace: creation, clustered executions across its activity
 * window, and (rarely) a pin/unpin pair.
 */
void
emitTrace(GenContext &ctx, std::uint32_t size, cache::ModuleId module,
          TimeUs create, TimeUs last, LifeClass cls)
{
    const BenchmarkProfile &p = ctx.profile;
    bool is_long = cls == LifeClass::Long;
    // Canonical identity: the module's uid plus the trace's offset in
    // the image, advancing by trace size like laid-out code.
    std::uint32_t offset = ctx.nextOffset[module];
    ctx.nextOffset[module] += size;
    const std::uint32_t trace = ctx.out.addTrace(
        cache::canonicalTraceId(ctx.uids[module], offset), size, module);
    ctx.out.emit(create, EventType::TraceCreate, trace);

    double execs =
        p.execsPerTraceMean * std::exp(ctx.rng.normal(0.0, 0.9));
    if (is_long) {
        execs *= p.hotMultiplier;
    }
    auto count = static_cast<std::uint64_t>(std::llround(
        std::clamp(execs, 1.0, 100000.0)));

    if (last > create && count > 1) {
        TimeUs window = last - create;
        // Working-set clustering: executions gather around a handful
        // of centers inside the window. Long-lived traces are the
        // program's core loops, so their executions must recur
        // *steadily* across the whole window (at least several
        // centers), not in one burst — this steady re-reference is
        // exactly what a unified FIFO keeps evicting (§5.1).
        std::size_t centers = 1 + static_cast<std::size_t>(count / 40);
        if (is_long) {
            // Dense enough that re-reference gaps stay well below a
            // probation-cache transit, so a hot trace always earns
            // its promotion hit on the first pass.
            centers = std::max<std::size_t>(centers, 24);
        }
        std::vector<double> centerTimes;
        if (cls == LifeClass::Mid && p.pollutingMid) {
            // Phase-structured reuse (a solver time step, a renderer
            // scene): two sustained plateaus at the window ends. Each
            // plateau outlasts a nursery+probation transit, so the
            // trace re-earns a full promotion per phase; the gap
            // between phases exceeds a persistent-cache transit, so
            // the promotion buys nothing. Plateau lengths are
            // fractions of *total* time because cache transit times
            // scale with the run, not with a trace's window.
            double plateau_span = std::min(
                0.45 * static_cast<double>(window),
                0.20 * static_cast<double>(ctx.total));
            std::size_t per_plateau = std::max<std::size_t>(
                4, static_cast<std::size_t>(count / 16));
            centerTimes.reserve(2 * per_plateau);
            for (std::size_t k = 0; k < per_plateau; ++k) {
                double into_plateau = (static_cast<double>(k) + 0.5) /
                                      static_cast<double>(per_plateau) *
                                      plateau_span;
                centerTimes.push_back(static_cast<double>(create) +
                                      into_plateau);
                centerTimes.push_back(static_cast<double>(last) -
                                      plateau_span + into_plateau);
            }
        } else {
            centerTimes.resize(centers);
            for (double &center : centerTimes) {
                center = ctx.rng.uniform(static_cast<double>(create),
                                         static_cast<double>(last));
            }
        }
        double spread =
            static_cast<double>(window) * p.clusterSpreadFrac;
        for (std::uint64_t k = 0; k + 2 <= count; ++k) {
            double center = centerTimes[static_cast<std::size_t>(
                ctx.rng.uniformInt(0,
                    static_cast<std::int64_t>(centerTimes.size()) -
                        1))];
            double t = std::clamp(ctx.rng.normal(center, spread),
                                  static_cast<double>(create),
                                  static_cast<double>(last));
            ctx.out.emit(static_cast<TimeUs>(t), EventType::TraceExec,
                         trace);
        }
        // Guarantee the window endpoint so measured lifetimes match.
        ctx.out.emit(last, EventType::TraceExec, trace);
    }

    if (p.pinFrac > 0.0 && last > create + 4 &&
        ctx.rng.bernoulli(p.pinFrac)) {
        TimeUs pin_at = create + static_cast<TimeUs>(
            ctx.rng.uniform(0.0,
                static_cast<double>(last - create - 2)));
        TimeUs unpin_at = std::min<TimeUs>(
            last,
            pin_at + std::max<TimeUs>(1, (last - create) / 50));
        ctx.out.emit(pin_at, EventType::Pin, trace);
        ctx.out.emit(unpin_at, EventType::Unpin, trace);
    }
}

/** Window of a main-module trace for a lifetime class. */
void
mainWindow(GenContext &ctx, LifeClass cls, TimeUs &create, TimeUs &last)
{
    double total = static_cast<double>(ctx.total);
    Rng &rng = ctx.rng;
    double begin = 0.0;
    double frac = 0.0;
    switch (cls) {
      case LifeClass::Short:
        // Well under the 20% bucket edge: short-lived traces go cold
        // quickly (a dialog dismissed, a one-off code path), which is
        // what lets the probation cache filter them out (§5.3).
        begin = rng.uniform(0.0, 0.93);
        frac = rng.uniform(0.002, 0.08);
        break;
      case LifeClass::Mid:
        if (ctx.profile.pollutingMid) {
            // Wide window: the single post-plateau touch lands long
            // after the persistent cache has churned the trace out.
            begin = rng.uniform(0.0, 0.20);
            frac = rng.uniform(0.60, 0.78);
        } else {
            begin = rng.uniform(0.0, 0.45);
            frac = rng.uniform(0.22, 0.72);
        }
        break;
      case LifeClass::Long:
        begin = rng.uniform(0.0, 0.10);
        frac = rng.uniform(0.82, 0.99);
        break;
    }
    create = static_cast<TimeUs>(begin * total);
    last = static_cast<TimeUs>(
        std::min(1.0, begin + frac) * total);
    if (last <= create) {
        last = create + 1;
    }
    if (last > ctx.total) {
        last = ctx.total;
    }
}

/**
 * The virtual microseconds of @p seconds, the duration of @p owner;
 * fatal() unless they stay below EventRecord::kTimeLimit, so every
 * event time fits a record's key (and the conversion does not
 * overflow).
 */
TimeUs
durationUs(std::string_view owner, double seconds)
{
    if (!(seconds * static_cast<double>(kUsPerSec) <
          static_cast<double>(EventRecord::kTimeLimit))) {
        fatal("{} durationSec {} reaches 2^61 us, past the event "
              "sort key's time bound",
              owner, seconds);
    }
    return secondsToUs(seconds);
}

/** The AccessLog of @p emission, whose records are sorted. */
tracelog::AccessLog
assembleLog(Emission emission)
{
    std::vector<tracelog::Event> events;
    events.reserve(emission.records.size());
    for (const EventRecord &record : emission.records) {
        tracelog::Event &event = events.emplace_back();
        event.type = record.type();
        event.time = record.time();
        switch (event.type) {
          case EventType::TraceCreate:
            event.sizeBytes = emission.traces[record.ref].sizeBytes;
            event.module = emission.traces[record.ref].module;
            [[fallthrough]];
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            event.trace = emission.traces[record.ref].id;
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            event.module = record.ref;
            break;
        }
    }
    emission.header.adoptEvents(std::move(events));
    return std::move(emission.header);
}

/** The compiled log of @p emission, whose records are sorted. Each
 *  trace's creation precedes its other events, so the creation hands
 *  out its dense id. */
tracelog::CompiledLog
assembleCompiled(const Emission &emission)
{
    tracelog::CompiledLog::Builder builder(emission.header,
                                           emission.records.size());
    std::vector<tracelog::DenseTraceId> dense(emission.traces.size());
    for (std::size_t i = 0; i < emission.records.size(); ++i) {
        const EventRecord &record = emission.records[i];
        const EventType type = record.type();
        switch (type) {
          case EventType::TraceCreate: {
            const TraceRow &row = emission.traces[record.ref];
            dense[record.ref] = builder.addTrace(row.id);
            builder.create(record.time(), dense[record.ref],
                           row.sizeBytes, row.module);
            break;
          }
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            builder.append(type, record.time(), dense[record.ref]);
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            builder.moduleEvent(i, type, record.time(), record.ref);
            break;
        }
    }
    return builder.finish();
}

} // namespace

EventRecord
EventRecord::make(TimeUs time, EventType type, std::uint32_t ref)
{
    std::uint64_t rank = 0;
    switch (type) {
      case EventType::ModuleLoad: rank = 0; break;
      case EventType::TraceCreate: rank = 1; break;
      case EventType::TraceExec: rank = 2; break;
      case EventType::Pin: rank = 3; break;
      case EventType::Unpin: rank = 4; break;
      case EventType::ModuleUnload: rank = 5; break;
    }
    return {(time << kRankBits) | rank, ref};
}

EventType
EventRecord::type() const
{
    static constexpr EventType kByRank[] = {
        EventType::ModuleLoad, EventType::TraceCreate,
        EventType::TraceExec,  EventType::Pin,
        EventType::Unpin,      EventType::ModuleUnload,
    };
    return kByRank[key & ((1u << kRankBits) - 1)];
}

void
sortRecords(std::vector<EventRecord> &records)
{
    const std::size_t n = records.size();
    if (n < 2) {
        return;
    }
    std::uint64_t max_key = 0;
    for (const EventRecord &record : records) {
        max_key = std::max(max_key, record.key);
    }
    // As few passes as kMaxDigitBits allows, the key bits spread
    // evenly over them: fewer buckets scatter with better locality.
    const int key_bits = std::bit_width(max_key);
    const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
    if (passes == 0) {
        return; // every key is 0
    }
    const int digit_bits = (key_bits + passes - 1) / passes;
    const std::size_t radix = std::size_t{1} << digit_bits;
    const std::uint64_t mask = radix - 1;

    // One pass counts every digit. LSD passes are stable, so equal
    // keys keep their order.
    std::vector<std::size_t> counts(
        static_cast<std::size_t>(passes) * radix);
    for (const EventRecord &record : records) {
        for (int d = 0; d < passes; ++d) {
            ++counts[static_cast<std::size_t>(d) * radix +
                     ((record.key >> (d * digit_bits)) & mask)];
        }
    }
    std::vector<EventRecord> buffer;
    for (int d = 0; d < passes; ++d) {
        std::size_t *bucket = &counts[static_cast<std::size_t>(d) * radix];
        const int shift = d * digit_bits;
        if (bucket[(records[0].key >> shift) & mask] == n) {
            continue; // a digit every key shares moves nothing
        }
        std::size_t offset = 0;
        for (std::size_t b = 0; b < radix; ++b) {
            offset += std::exchange(bucket[b], offset);
        }
        buffer.resize(n);
        for (const EventRecord &record : records) {
            buffer[bucket[(record.key >> shift) & mask]++] = record;
        }
        records.swap(buffer);
    }
}

std::uint32_t
sampleTraceSize(Rng &rng, const TraceSizeModel &model)
{
    double size = rng.lognormal(std::log(model.medianBytes),
                                model.sigma);
    return static_cast<std::uint32_t>(
        std::clamp(size, static_cast<double>(model.minBytes),
                   static_cast<double>(model.maxBytes)));
}

namespace {

/** @p profile's log as sorted records. */
Emission
emitWorkload(const BenchmarkProfile &profile)
{
    requireFinite("profile '" + profile.name + "'",
                  {{"durationSec", profile.durationSec},
                   {"finalCacheKb", profile.finalCacheKb},
                   {"codeExpansionPct", profile.codeExpansionPct},
                   {"unmapFrac", profile.unmapFrac},
                   {"mix.shortFrac", profile.mix.shortFrac},
                   {"mix.midFrac", profile.mix.midFrac},
                   {"mix.longFrac", profile.mix.longFrac},
                   {"execsPerTraceMean", profile.execsPerTraceMean},
                   {"hotMultiplier", profile.hotMultiplier},
                   {"clusterSpreadFrac", profile.clusterSpreadFrac},
                   {"pinFrac", profile.pinFrac}});
    if (profile.durationSec <= 0.0 || profile.finalCacheKb <= 0.0) {
        fatal("profile '{}' has a non-positive duration or size",
              profile.name);
    }
    if (profile.unmapFrac < 0.0 || profile.unmapFrac >= 0.9) {
        fatal("profile '{}' unmapFrac {} out of range", profile.name,
              profile.unmapFrac);
    }

    Rng rng(profile.seed);
    Emission out;
    TimeUs total =
        durationUs("profile '" + profile.name + "'", profile.durationSec);
    GenContext ctx{profile, rng, out, total, {}, {}};

    // Module identities: the exe plus one entry per transient DLL.
    // Names are salted with the benchmark so uids differ across
    // profiles (each models a different application's private code).
    ctx.uids.push_back(
        cache::moduleUidOfName(profile.name + ":exe"));
    for (unsigned d = 0; d < profile.dllCount; ++d) {
        ctx.uids.push_back(cache::moduleUidOfName(
            profile.name + ":dll" + std::to_string(d + 1)));
    }
    for (std::size_t i = 0; i < ctx.uids.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (ctx.uids[i] == ctx.uids[j]) {
                fatal("profile '{}': module uid collision ({} vs {})",
                      profile.name, i, j);
            }
        }
    }
    ctx.nextOffset.assign(ctx.uids.size(), 0);

    double created_target = profile.finalCacheKb * 1024.0 /
                            (1.0 - profile.unmapFrac);
    TraceSizeModel size_model;

    // Main executable is module 0, mapped for the entire run.
    out.emit(0, EventType::ModuleLoad, 0);

    // Transient DLL modules with load/unload windows (Fig 4).
    struct Dll
    {
        cache::ModuleId id;
        TimeUs load;
        TimeUs unload;
    };
    std::vector<Dll> dlls;
    double dll_bytes_total = profile.unmapFrac * created_target;
    for (unsigned d = 0; d < profile.dllCount; ++d) {
        Dll dll;
        dll.id = d + 1;
        double begin = rng.uniform(0.03, 0.55);
        double length = rng.uniform(0.12, 0.33);
        dll.load = static_cast<TimeUs>(
            begin * static_cast<double>(total));
        dll.unload = static_cast<TimeUs>(
            std::min(0.96, begin + length) *
            static_cast<double>(total));
        dlls.push_back(dll);
        out.emit(dll.load, EventType::ModuleLoad, dll.id);
        out.emit(dll.unload, EventType::ModuleUnload, dll.id);
    }

    // DLL-hosted traces: windows inside their module's mapping, so
    // their code dies by unmapping (program-forced eviction).
    double dll_bytes_emitted = 0.0;
    if (!dlls.empty()) {
        double budget_per_dll =
            dll_bytes_total / static_cast<double>(dlls.size());
        for (const Dll &dll : dlls) {
            double used = 0.0;
            TimeUs margin = std::max<TimeUs>(1, total / 1000);
            TimeUs window_begin = dll.load + margin;
            TimeUs window_end =
                dll.unload > margin ? dll.unload - margin : dll.load;
            if (window_end <= window_begin) {
                continue;
            }
            while (used < budget_per_dll) {
                std::uint32_t size = sampleTraceSize(rng, size_model);
                TimeUs create = static_cast<TimeUs>(rng.uniform(
                    static_cast<double>(window_begin),
                    static_cast<double>(window_end)));
                TimeUs last = create + static_cast<TimeUs>(
                    rng.uniform(0.05, 0.95) *
                    static_cast<double>(window_end - create));
                emitTrace(ctx, size, dll.id, create,
                          std::max(last, create + 1),
                          LifeClass::Short);
                used += size;
                dll_bytes_emitted += size;
            }
        }
    }

    // Main-module traces, with the lifetime mixture adjusted so the
    // *overall* population (DLL traces are short-lived by
    // construction) matches the profile's mix.
    double dll_frac = created_target > 0.0
                          ? dll_bytes_emitted / created_target
                          : 0.0;
    LifetimeMix main_mix;
    double remaining = std::max(0.05, 1.0 - dll_frac);
    main_mix.shortFrac = std::max(
        0.02, (profile.mix.shortFrac - dll_frac) / remaining);
    main_mix.midFrac =
        std::max(0.02, profile.mix.midFrac / remaining);
    main_mix.longFrac =
        std::max(0.02, profile.mix.longFrac / remaining);
    double norm = main_mix.shortFrac + main_mix.midFrac +
                  main_mix.longFrac;
    main_mix.shortFrac /= norm;
    main_mix.midFrac /= norm;
    main_mix.longFrac /= norm;

    double main_target = created_target - dll_bytes_emitted;
    double main_emitted = 0.0;
    while (main_emitted < main_target) {
        std::uint32_t size = sampleTraceSize(rng, size_model);
        LifeClass cls = sampleLifeClass(rng, main_mix);
        TimeUs create = 0;
        TimeUs last = 0;
        mainWindow(ctx, cls, create, last);
        emitTrace(ctx, size, 0, create, last, cls);
        main_emitted += size;
    }

    sortRecords(out.records);

    out.header.setBenchmark(profile.name);
    out.header.setDuration(total);
    out.header.setFootprintBytes(static_cast<std::uint64_t>(
        profile.finalCacheKb * 1024.0 * 100.0 /
        profile.codeExpansionPct));
    for (cache::ModuleId m = 0; m < ctx.uids.size(); ++m) {
        out.header.setModuleUid(m, ctx.uids[m]);
    }
    return out;
}

} // namespace

tracelog::AccessLog
generateWorkload(const BenchmarkProfile &profile)
{
    return assembleLog(emitWorkload(profile));
}

tracelog::CompiledLog
generateCompiledWorkload(const BenchmarkProfile &profile)
{
    return assembleCompiled(emitWorkload(profile));
}

namespace {

/** One shared library's fleet-invariant trace layout. */
struct SharedLibTrace
{
    cache::TraceId id = cache::kInvalidTrace;
    std::uint32_t sizeBytes = 0;
};

/**
 * The trace library of shared DLL @p name: derived from an Rng seeded
 * by the library's uid alone, so every process (and every run) lays
 * out the identical traces at the identical image offsets.
 */
std::vector<SharedLibTrace>
sharedLibraryLayout(cache::ModuleUid uid, double lib_bytes)
{
    Rng rng(0x5eedc0de ^ static_cast<std::uint64_t>(uid));
    TraceSizeModel size_model;
    std::vector<SharedLibTrace> layout;
    std::uint32_t offset = 0;
    double emitted = 0.0;
    while (emitted < lib_bytes) {
        SharedLibTrace trace;
        trace.sizeBytes = sampleTraceSize(rng, size_model);
        trace.id = cache::canonicalTraceId(uid, offset);
        offset += trace.sizeBytes;
        emitted += trace.sizeBytes;
        layout.push_back(trace);
    }
    return layout;
}

} // namespace

std::vector<tracelog::AccessLog>
generateFleetWorkload(const FleetWorkloadConfig &config)
{
    if (config.processes == 0 || config.processes > 64) {
        fatal("fleet size {} outside 1..64", config.processes);
    }
    if (config.sharedDlls == 0) {
        fatal("a fleet workload needs at least one shared DLL");
    }
    requireFinite("fleet",
                  {{"sharedLibKb", config.sharedLibKb},
                   {"privateKb", config.privateKb},
                   {"adoptFrac", config.adoptFrac},
                   {"durationSec", config.durationSec},
                   {"execsPerTraceMean", config.execsPerTraceMean}});
    if (config.adoptFrac <= 0.0 || config.adoptFrac > 1.0) {
        fatal("fleet adoptFrac {} outside (0, 1]", config.adoptFrac);
    }
    if (config.durationSec <= 0.0) {
        fatal("fleet duration must be positive");
    }

    const TimeUs total = durationUs("fleet", config.durationSec);

    // Shared module identities and layouts: functions of the fleet's
    // library *names* only, never of the process.
    std::vector<cache::ModuleUid> sharedUids;
    std::vector<std::vector<SharedLibTrace>> libraries;
    for (unsigned d = 0; d < config.sharedDlls; ++d) {
        cache::ModuleUid uid = cache::moduleUidOfName(
            config.namePrefix + ":shared" + std::to_string(d + 1) +
            ".dll");
        sharedUids.push_back(uid);
        libraries.push_back(
            sharedLibraryLayout(uid, config.sharedLibKb * 1024.0));
    }

    // Fleet-wide storm schedule: every process unloads and remaps the
    // storm's DLL at the same virtual times (round-robin over DLLs).
    // The last storm stays clear of the log's tail so post-storm
    // executions can regenerate the shared working set.
    struct Storm
    {
        unsigned dll = 0;
        TimeUs unload = 0;
        TimeUs reload = 0;
    };
    std::vector<Storm> storms;
    const TimeUs remapGap = std::max<TimeUs>(1, total / 200);
    for (unsigned s = 0; s < config.unmapStorms; ++s) {
        Storm storm;
        storm.dll = s % config.sharedDlls;
        double frac = 0.25 + 0.55 * (static_cast<double>(s) + 1.0) /
                                 (static_cast<double>(
                                      config.unmapStorms) + 1.0);
        storm.unload = static_cast<TimeUs>(
            frac * static_cast<double>(total));
        storm.reload = storm.unload + remapGap;
        storms.push_back(storm);
    }
    TimeUs firstStorm = total;
    for (const Storm &storm : storms) {
        firstStorm = std::min(firstStorm, storm.unload);
    }

    std::vector<tracelog::AccessLog> logs;
    logs.reserve(config.processes);
    for (unsigned p = 0; p < config.processes; ++p) {
        Rng rng(config.seed * 7919 + p + 1);
        Emission out;

        // Private executable: salted per process, so its traces can
        // never deduplicate across the fleet.
        std::string exeName = config.namePrefix + ":proc" +
                              std::to_string(p) + ":exe";
        cache::ModuleUid exeUid = cache::moduleUidOfName(exeName);
        for (cache::ModuleUid uid : sharedUids) {
            if (uid == exeUid) {
                fatal("fleet module uid collision for '{}'", exeName);
            }
        }
        out.emit(0, EventType::ModuleLoad, 0);

        // Shared DLLs are modules 1..D, mapped from the start, with
        // the fleet storm schedule appended.
        for (unsigned d = 0; d < config.sharedDlls; ++d) {
            out.emit(0, EventType::ModuleLoad, d + 1);
        }
        for (const Storm &storm : storms) {
            out.emit(storm.unload, EventType::ModuleUnload,
                     storm.dll + 1);
            out.emit(storm.reload, EventType::ModuleLoad, storm.dll + 1);
        }

        // Shared-library traces: each process adopts its own subset
        // and execution schedule, but the (id, size) pairs are the
        // library's. Creates sit before the first storm (a trace is
        // created once; post-storm execs regenerate via the replay
        // miss path).
        const TimeUs createEnd = std::max<TimeUs>(
            2, static_cast<TimeUs>(0.8 * static_cast<double>(
                                             firstStorm)));
        for (unsigned d = 0; d < config.sharedDlls; ++d) {
            for (const SharedLibTrace &trace : libraries[d]) {
                if (!rng.bernoulli(config.adoptFrac)) {
                    continue;
                }
                TimeUs create = static_cast<TimeUs>(rng.uniform(
                    1.0, static_cast<double>(createEnd)));
                const std::uint32_t ordinal =
                    out.addTrace(trace.id, trace.sizeBytes, d + 1);
                out.emit(create, EventType::TraceCreate, ordinal);
                double execs = config.execsPerTraceMean *
                               std::exp(rng.normal(0.0, 0.8));
                auto count = static_cast<std::uint64_t>(std::llround(
                    std::clamp(execs, 1.0, 50000.0)));
                // A few working-set centers spanning the whole run,
                // so executions keep arriving after every storm.
                std::size_t centers = 3 + static_cast<std::size_t>(
                                              count / 64);
                std::vector<double> centerTimes(centers);
                for (double &center : centerTimes) {
                    center = rng.uniform(static_cast<double>(create),
                                         static_cast<double>(total));
                }
                double spread = 0.02 * static_cast<double>(total);
                for (std::uint64_t k = 0; k < count; ++k) {
                    double center =
                        centerTimes[static_cast<std::size_t>(
                            rng.uniformInt(
                                0, static_cast<std::int64_t>(
                                       centers) - 1))];
                    double t = std::clamp(
                        rng.normal(center, spread),
                        static_cast<double>(create),
                        static_cast<double>(total));
                    out.emit(static_cast<TimeUs>(t),
                             EventType::TraceExec, ordinal);
                }
            }
        }

        // Private working set through the regular emitter (module 0).
        BenchmarkProfile priv;
        priv.name = exeName;
        priv.execsPerTraceMean = config.execsPerTraceMean;
        priv.pinFrac = 0.0;
        GenContext ctx{priv, rng, out, total, {}, {}};
        ctx.uids.assign(1, exeUid);
        ctx.nextOffset.assign(1, 0);
        TraceSizeModel size_model;
        double priv_emitted = 0.0;
        const double priv_target = config.privateKb * 1024.0;
        while (priv_emitted < priv_target) {
            std::uint32_t size = sampleTraceSize(rng, size_model);
            LifeClass cls = sampleLifeClass(rng, priv.mix);
            TimeUs create = 0;
            TimeUs last = 0;
            mainWindow(ctx, cls, create, last);
            emitTrace(ctx, size, 0, create, last, cls);
            priv_emitted += size;
        }

        sortRecords(out.records);

        tracelog::AccessLog &header = out.header;
        header.setBenchmark(config.namePrefix + ":proc" +
                            std::to_string(p));
        header.setDuration(total);
        header.setFootprintBytes(static_cast<std::uint64_t>(
            priv_target + config.sharedDlls *
                              config.sharedLibKb * 1024.0));
        header.setModuleUid(0, exeUid);
        for (unsigned d = 0; d < config.sharedDlls; ++d) {
            header.setModuleUid(d + 1, sharedUids[d]);
        }
        logs.push_back(assembleLog(std::move(out)));
    }
    return logs;
}

} // namespace gencache::workload
