/**
 * @file
 * Cache-access event model.
 *
 * The paper's evaluation is trace-driven: DynamoRIO ran each benchmark
 * with an unbounded cache, emitted a verbose log of cache accesses, and
 * that log drove the cache simulator. This module defines our
 * equivalent log: a time-ordered sequence of trace creations,
 * executions, module load/unload events, and pin/unpin markers.
 */

#ifndef GENCACHE_TRACELOG_EVENT_H
#define GENCACHE_TRACELOG_EVENT_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "codecache/fragment.h"
#include "support/units.h"

namespace gencache::tracelog {

/** Kinds of cache-access events. */
enum class EventType : std::uint8_t {
    TraceCreate,  ///< trace first generated: carries size and module
    TraceExec,    ///< trace executed (a code cache lookup)
    ModuleLoad,   ///< module mapped into the address space
    ModuleUnload, ///< module unmapped: program-forced eviction
    Pin,          ///< trace becomes undeletable (exception in flight)
    Unpin,        ///< trace deletable again
};

/** @return printable name of @p type. */
const char *eventTypeName(EventType type);

/** One log record. */
struct Event
{
    EventType type = EventType::TraceExec;
    TimeUs time = 0;
    cache::TraceId trace = cache::kInvalidTrace;
    std::uint32_t sizeBytes = 0;        ///< TraceCreate only
    cache::ModuleId module = cache::kNoModule;

    static Event traceCreate(TimeUs time, cache::TraceId trace,
                             std::uint32_t size_bytes,
                             cache::ModuleId module);
    static Event traceExec(TimeUs time, cache::TraceId trace);
    static Event moduleLoad(TimeUs time, cache::ModuleId module);
    static Event moduleUnload(TimeUs time, cache::ModuleId module);
    static Event pin(TimeUs time, cache::TraceId trace);
    static Event unpin(TimeUs time, cache::TraceId trace);
};

/**
 * An in-memory access log plus the workload metadata the experiments
 * need (benchmark identity, duration, and static code footprint).
 */
class AccessLog
{
  public:
    AccessLog() = default;

    void setBenchmark(std::string name) { benchmark_ = std::move(name); }
    const std::string &benchmark() const { return benchmark_; }

    void setDuration(TimeUs duration) { duration_ = duration; }
    TimeUs duration() const { return duration_; }

    /** Static code footprint of the traced application in bytes
     *  (denominator of the paper's Equation 1). */
    void setFootprintBytes(std::uint64_t bytes) { footprint_ = bytes; }
    std::uint64_t footprintBytes() const { return footprint_; }

    /** Append an event; times must be non-decreasing. */
    void append(const Event &event);

    /**
     * Replace the events with @p events, whose times must be
     * non-decreasing, without copying them; the created totals are
     * recounted in the same pass (the generators' whole-log append).
     */
    void adoptEvents(std::vector<Event> events);

    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    const Event &operator[](std::size_t i) const { return events_[i]; }

    const std::vector<Event> &events() const { return events_; }

    /**
     * Register the process-independent identity of local @p module
     * (cache::canonicalTraceId's uid half). Modules never registered
     * report cache::kNoModuleUid, marking their traces private —
     * ineligible for any cross-process shared tier.
     */
    void setModuleUid(cache::ModuleId module, cache::ModuleUid uid)
    {
        moduleUids_[module] = uid;
    }

    /** Uid of @p module, or cache::kNoModuleUid when unregistered. */
    cache::ModuleUid moduleUid(cache::ModuleId module) const
    {
        auto it = moduleUids_.find(module);
        return it == moduleUids_.end() ? cache::kNoModuleUid
                                       : it->second;
    }

    /** All registered module uids (local id -> uid). */
    const std::unordered_map<cache::ModuleId, cache::ModuleUid> &
    moduleUids() const
    {
        return moduleUids_;
    }

    /** Total bytes of TraceCreate events (trace volume, Figure 3). */
    std::uint64_t createdTraceBytes() const { return createdBytes_; }

    /** Number of TraceCreate events. */
    std::uint64_t createdTraceCount() const { return createdCount_; }

    /**
     * The log's structural rules: non-decreasing times, each trace
     * created (with a nonzero size, in a loaded module, under an id
     * other than the reserved cache::kInvalidTrace) before
     * executed/pinned, no duplicate creations (a trace may be
     * re-created only after its owning module unloaded — the module
     * reload path), loads only of unloaded modules other than the
     * reserved cache::kNoModule, and unloads only of loaded ones.
     * @return the first rule the log breaks, naming the trace or
     * module, or an empty string when it keeps them all (the loaders
     * report this for user-supplied files).
     */
    std::string firstViolation() const;

    /** firstViolation(), panicking on a violation (generator and
     *  runtime logs: there, malformation is a bug). */
    void validate() const;

  private:
    std::string benchmark_;
    TimeUs duration_ = 0;
    std::uint64_t footprint_ = 0;
    std::uint64_t createdBytes_ = 0;
    std::uint64_t createdCount_ = 0;
    std::vector<Event> events_;
    std::unordered_map<cache::ModuleId, cache::ModuleUid> moduleUids_;
};

} // namespace gencache::tracelog

#endif // GENCACHE_TRACELOG_EVENT_H
