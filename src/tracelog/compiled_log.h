/**
 * @file
 * Compiled columnar access logs.
 *
 * An AccessLog stores events as an array of structs, identifies traces
 * by sparse 64-bit ids, and forces every replay to re-discover
 * per-trace metadata (creation size, owning module) through hash
 * lookups. A CompiledLog is the same log in a replay-friendly shape:
 *
 *   - structure-of-arrays event columns (type / time / trace /
 *     pin intent) that replay loops stream sequentially;
 *   - a dense remap of every TraceId that appears in the log to
 *     [0, traceCount()), so simulators can keep residency and pin
 *     state in flat vectors instead of hash maps (a trace re-created
 *     by a module reload takes a second dense id);
 *   - per-trace side tables (creation size, owning module, original
 *     id) indexed by dense id, read by creations and conflict-miss
 *     regenerations alike, with no registry lookup;
 *   - per-module event-range indices for introspection and tooling.
 *
 * One CompiledLog::Builder writes every compiled log, event by event
 * in log order. compile() drives it from an AccessLog through a
 * TraceId -> dense id remap, validating the log's replay invariants
 * (no duplicate creations outside a module reload, no execution of
 * unknown traces) so the replay loop can skip those branches; the
 * workload generator drives it from its sorted records, whose
 * per-log trace ordinals need no remap.
 *
 * A CompiledLog is immutable once built and safe to share read-only
 * across sweep cells and worker threads.
 *
 * The event columns cost 14 bytes an event. A replay that streams a
 * log once and needs no second pass (the temporal checker's) can
 * compile it in windows instead (CompiledLogWindows): the trace
 * tables stay whole, the columns hold one window at a time.
 */

#ifndef GENCACHE_TRACELOG_COMPILED_LOG_H
#define GENCACHE_TRACELOG_COMPILED_LOG_H

#include <cstdint>
#include <memory>
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

    class Builder;

    /**
     * Compile @p log. A trace created again after its module unloaded
     * (a module reload) gets a fresh dense id with the same original
     * id. Panics on any other repeated creation or an execution before
     * creation (loaders reject such logs first, through
     * AccessLog::firstViolation).
     */
    static CompiledLog compile(const AccessLog &log);

    /**
     * The AccessLog this log holds, rebuilt in one pass into an
     * exact-size event vector. Each event carries the fields its
     * type's Event factory sets (a creation its trace's size and
     * module, a module event its module), so it reproduces every log
     * built through those factories, which every generated log is.
     */
    AccessLog toAccessLog() const;

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

    /** Per event: the dense trace id of a trace event, the module
     *  (a cache::ModuleId) of a ModuleLoad or ModuleUnload. A
     *  creation's size and module are traceSize() and traceModule()
     *  of its dense id. */
    const std::vector<DenseTraceId> &traces() const { return trace_; }

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
    friend class CompiledLogWindows;

    /** compile()'s walk over an AccessLog in log order: the TraceId
     *  -> dense id remap and its checks, feeding a Builder. */
    struct Walk;

    CompiledLog() = default;

    /** A log with @p log's metadata and no events or traces yet. */
    static CompiledLog header(const AccessLog &log);

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
    std::vector<std::uint8_t> execPinned_;
    std::vector<Chunk> chunks_;

    std::vector<std::uint32_t> traceSize_;
    std::vector<cache::ModuleId> traceModule_;
    std::vector<cache::TraceId> originalId_;
    std::unordered_map<cache::ModuleId, cache::ModuleUid> moduleUids_;

    std::vector<ModuleRange> moduleRanges_;
};

/**
 * The one writer of a CompiledLog: its event columns, trace side
 * tables, created totals and module ranges. Events are appended in log
 * order, each trace event naming its trace by dense id. The caller
 * hands out the dense ids through addTrace(), in order of first
 * appearance, and maps its own trace names to them: compile() through
 * its TraceId remap, the workload generator through its per-log trace
 * ordinals.
 */
class CompiledLog::Builder
{
  public:
    /** A log with @p header's benchmark, duration, footprint and
     *  module uids (its events are not read), with column room for
     *  @p events events. */
    Builder(const AccessLog &header, std::size_t events);

    /** The log built so far. */
    const CompiledLog &log() const { return out_; }

    /** Dense ids handed out so far. */
    DenseTraceId traceCount() const
    {
        return static_cast<DenseTraceId>(pinWanted_.size());
    }

    /** The next dense id, standing for trace @p original; its size
     *  and module are its create()'s. */
    DenseTraceId addTrace(cache::TraceId original)
    {
        if (tables_) {
            out_.originalId_.push_back(original);
            out_.traceSize_.push_back(0);
            out_.traceModule_.push_back(cache::kNoModule);
        }
        pinWanted_.push_back(0);
        return traceCount() - 1;
    }

    /** Append a TraceCreate of dense trace @p trace, @p size_bytes
     *  in @p module. */
    void create(TimeUs time, DenseTraceId trace, std::uint32_t size_bytes,
                cache::ModuleId module)
    {
        if (tables_) {
            out_.traceSize_[trace] = size_bytes;
            out_.traceModule_[trace] = module;
            out_.createdBytes_ += size_bytes;
            ++out_.createdCount_;
        }
        pinWanted_[trace] = 0;
        column(EventType::TraceCreate, time, trace, 0);
    }

    /** Append a TraceExec, Pin or Unpin of dense trace @p trace. */
    void append(EventType type, TimeUs time, DenseTraceId trace)
    {
        std::uint8_t pinned = 0;
        if (type == EventType::TraceExec) {
            pinned = pinWanted_[trace];
        } else {
            pinWanted_[trace] = type == EventType::Pin ? 1 : 0;
        }
        column(type, time, trace, pinned);
    }

    /** Append a ModuleLoad or ModuleUnload of @p module, event @p i
     *  of the log. */
    void moduleEvent(std::size_t i, EventType type, TimeUs time,
                     cache::ModuleId module);

    /** 1 + the log index of @p module's latest unload so far; 0 when
     *  it has not unloaded. */
    std::size_t lastUnload(cache::ModuleId module) const;

    /** Cut the chunks and hand the log over. */
    CompiledLog finish();

  private:
    friend class CompiledLogWindows;

    /** Continue @p out: its side tables, created totals and module
     *  ranges when @p tables, its event columns when @p columns. */
    Builder(CompiledLog out, bool tables, bool columns);

    void column(EventType type, TimeUs time, std::uint32_t ref,
                std::uint8_t pinned)
    {
        if (columns_) {
            out_.type_.push_back(type);
            out_.time_.push_back(time);
            out_.trace_.push_back(ref);
            out_.execPinned_.push_back(pinned);
        }
    }

    CompiledLog out_;
    bool tables_;
    bool columns_;
    /** Per dense id: inside a pin/unpin window at this log position. */
    std::vector<std::uint8_t> pinWanted_;
    /** Per module, in order of first appearance: 1 + the index of its
     *  latest unload, 0 for never. */
    std::unordered_map<cache::ModuleId, std::size_t> moduleSlot_;
    std::vector<std::size_t> unloadedAt_;
};

/**
 * An AccessLog compiled one window of events at a time, for a replay
 * that streams the log once (sim::BatchedReplay's AccessLog
 * constructor). log()'s trace tables, module ranges and metadata are
 * the whole log's from the start, so its dense ids, traceCount(),
 * originalIds() and cost tables are final before the first event; its
 * event columns and chunks() hold the current window only. A window
 * is a run of whole chunks of the whole-log compile, of at least
 * @p window_events events unless the log ends first, and its chunks
 * are exactly those chunks, indexed from the window's first event.
 * Keeps a reference to the source log, which must outlive it.
 */
class CompiledLogWindows
{
  public:
    /** Compile @p log's trace tables and its first window. */
    CompiledLogWindows(const AccessLog &log, std::size_t window_events);
    ~CompiledLogWindows();

    /** The current window (and the whole log's trace tables). */
    const CompiledLog &log() const;

    /** Replace log()'s columns and chunks with the next window.
     *  @return false, changing nothing, after the last window. */
    bool next();

  private:
    /** Compile the window that starts at windowEnd_. */
    void fill();

    const AccessLog &source_;
    std::size_t windowEvents_;
    /** The column walk; its builder holds the window. */
    std::unique_ptr<CompiledLog::Walk> walk_;
    std::size_t windowEnd_ = 0; ///< source index after the window
};

} // namespace gencache::tracelog

#endif // GENCACHE_TRACELOG_COMPILED_LOG_H
