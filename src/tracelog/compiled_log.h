/**
 * @file
 * Compiled columnar access logs.
 *
 * An AccessLog stores events as an array of structs, identifies traces
 * by sparse 64-bit ids, and forces every replay to re-discover
 * per-trace metadata (creation size, owning module) through hash
 * lookups. A CompiledLog is the one-time "compilation" of that log
 * into a replay-friendly shape:
 *
 *   - structure-of-arrays event columns (type / time / trace / size /
 *     module) that replay loops stream sequentially;
 *   - a dense remap of every TraceId that appears in the log to
 *     [0, traceCount()), so simulators can keep residency and pin
 *     state in flat vectors instead of hash maps (a trace re-created
 *     by a module reload takes a second dense id);
 *   - per-trace side tables (creation size, owning module, original
 *     id) indexed by dense id, so a conflict-miss regeneration needs
 *     no registry lookup at all;
 *   - per-module event-range indices for introspection and tooling.
 *
 * Compilation validates the same invariants the legacy simulator
 * checks per event (no duplicate creations, no execution of unknown
 * traces), so the fast replay paths can skip those branches.
 *
 * A CompiledLog is immutable after compile() and safe to share
 * read-only across sweep cells and worker threads.
 */

#ifndef GENCACHE_TRACELOG_COMPILED_LOG_H
#define GENCACHE_TRACELOG_COMPILED_LOG_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "tracelog/event.h"

namespace gencache::tracelog {

/** Dense trace id: index into a CompiledLog's side tables. */
using DenseTraceId = std::uint32_t;

/** An AccessLog compiled into columnar, dense-id form. */
class CompiledLog
{
  public:
    /** Event-index range of one module's activity in the log. */
    struct ModuleRange
    {
        cache::ModuleId module = cache::kNoModule;
        std::size_t firstEvent = 0;  ///< first load/unload index
        std::size_t lastEvent = 0;   ///< last load/unload index
        std::uint32_t loads = 0;
        std::uint32_t unloads = 0;
    };

    /** Events per non-barrier replay chunk (see chunks()). */
    static constexpr std::size_t kChunkEvents = 1024;

    /**
     * One cache-sized slice of the event columns. Replay kernels sweep
     * a block of lanes chunk by chunk, so the slice's columns stay in
     * cache across lanes. Module events sit alone in `barrier` chunks:
     * they are global phase boundaries (checkpoint hooks fire), so
     * isolating them keeps every other chunk free of that branch.
     */
    struct Chunk
    {
        std::size_t first = 0;      ///< first event index
        std::uint32_t count = 0;    ///< number of events
        std::uint8_t typeMask = 0;  ///< OR of (1 << EventType) present
        bool barrier = false;       ///< singleton module event

        /** True when every event is TraceExec: the kernel can run the
         *  switch-free exec-only inner loop. */
        bool pureExec() const
        {
            return typeMask ==
                   (1u << static_cast<unsigned>(EventType::TraceExec));
        }
    };

    /**
     * Compile @p log. A trace created again after its module unloaded
     * (a module reload) gets a fresh dense id with the same original
     * id. Panics (like the per-event CacheSimulator loop) on any other
     * repeated creation or an execution before creation.
     */
    static CompiledLog compile(const AccessLog &log);

    // --- workload metadata (mirrors AccessLog) ----------------------
    const std::string &benchmark() const { return benchmark_; }
    TimeUs duration() const { return duration_; }
    std::uint64_t footprintBytes() const { return footprint_; }
    std::uint64_t createdTraceBytes() const { return createdBytes_; }
    std::uint64_t createdTraceCount() const { return createdCount_; }

    // --- event columns ----------------------------------------------
    std::size_t size() const { return type_.size(); }
    bool empty() const { return type_.empty(); }

    const std::vector<EventType> &types() const { return type_; }
    const std::vector<TimeUs> &times() const { return time_; }

    /** Dense trace id per event; unused for module events. */
    const std::vector<DenseTraceId> &traces() const { return trace_; }

    /** TraceCreate size per event; 0 elsewhere. */
    const std::vector<std::uint32_t> &sizes() const { return size_; }

    /** Module per event: owning module for TraceCreate, subject for
     *  ModuleLoad/ModuleUnload, kNoModule elsewhere. */
    const std::vector<cache::ModuleId> &modules() const
    {
        return module_;
    }

    /**
     * Pin intent per event: whether the event's trace is inside a
     * pin/unpin window at this log position (1) or not (0). Replay
     * consults this on miss regeneration; precomputing it here removes
     * the only cross-lane mutable state from the blocked replay kernel,
     * since pin intent depends on log position alone, never on cache
     * state.
     */
    const std::vector<std::uint8_t> &execPinned() const
    {
        return execPinned_;
    }

    /** The event stream cut into replay chunks: runs of at most
     *  kChunkEvents trace events, with every module event isolated in
     *  its own barrier chunk. Chunks tile the log exactly. */
    const std::vector<Chunk> &chunks() const { return chunks_; }

    // --- per-trace side tables (indexed by dense id) ----------------

    /** Number of distinct traces (a reloaded trace counts once per
     *  creation): the dense id bound. */
    std::uint64_t traceCount() const { return originalId_.size(); }

    /** Creation size of dense trace @p id (0 if never created). */
    std::uint32_t traceSize(DenseTraceId id) const
    {
        return traceSize_[id];
    }

    /** Owning module of dense trace @p id. */
    cache::ModuleId traceModule(DenseTraceId id) const
    {
        return traceModule_[id];
    }

    /** Original (sparse) id of dense trace @p id. */
    cache::TraceId originalId(DenseTraceId id) const
    {
        return originalId_[id];
    }

    /**
     * The whole dense-id -> original-id column. When the source log
     * used canonical (module uid, offset) ids, this is exactly the
     * shared-store key table a mounted TierPipeline needs to
     * translate the dense ids replay feeds it back into
     * process-independent keys (TierPipeline::setSharedKeyTable).
     */
    const std::vector<cache::TraceId> &originalIds() const
    {
        return originalId_;
    }

    /** Process-independent uid of local module @p module (mirrors
     *  AccessLog::moduleUid); kNoModuleUid when unregistered. */
    cache::ModuleUid moduleUid(cache::ModuleId module) const
    {
        auto it = moduleUids_.find(module);
        return it == moduleUids_.end() ? cache::kNoModuleUid
                                       : it->second;
    }

    /** All registered module uids (mirrors AccessLog). */
    const std::unordered_map<cache::ModuleId, cache::ModuleUid> &
    moduleUids() const
    {
        return moduleUids_;
    }

    // --- per-module index -------------------------------------------

    /** Load/unload ranges, ordered by first appearance in the log. */
    const std::vector<ModuleRange> &moduleRanges() const
    {
        return moduleRanges_;
    }

  private:
    CompiledLog() = default;

    /** Cut the event columns into chunks_ (see chunks()). */
    void buildChunks();

    std::string benchmark_;
    TimeUs duration_ = 0;
    std::uint64_t footprint_ = 0;
    std::uint64_t createdBytes_ = 0;
    std::uint64_t createdCount_ = 0;

    std::vector<EventType> type_;
    std::vector<TimeUs> time_;
    std::vector<DenseTraceId> trace_;
    std::vector<std::uint32_t> size_;
    std::vector<cache::ModuleId> module_;
    std::vector<std::uint8_t> execPinned_;
    std::vector<Chunk> chunks_;

    std::vector<std::uint32_t> traceSize_;
    std::vector<cache::ModuleId> traceModule_;
    std::vector<cache::TraceId> originalId_;
    std::unordered_map<cache::ModuleId, cache::ModuleUid> moduleUids_;

    std::vector<ModuleRange> moduleRanges_;
};

} // namespace gencache::tracelog

#endif // GENCACHE_TRACELOG_COMPILED_LOG_H
