/**
 * @file
 * The dynamic optimizer runtime: a DynamoRIO-like execution engine for
 * synthetic guest programs.
 *
 * Execution alternates between:
 *  - the *basic-block path*: blocks are copied into the basic-block
 *    cache and interpreted, while trace-head counters accumulate;
 *  - *trace generation mode*: once a head crosses the threshold, the
 *    executed path is recorded into a superblock (NET) and inserted
 *    into the managed trace cache (a cache::TierPipeline); and
 *  - *trace execution*: resident traces run from the code cache,
 *    tail-chaining through patched links without dispatcher round
 *    trips.
 *
 * Every trace creation, execution, and module load/unload is appended
 * to an AccessLog, making live runs replayable by the trace-driven
 * simulator (src/sim) — the same structure as the paper's
 * DynamoRIO-log-plus-cache-simulator methodology.
 *
 * Every per-block structure is a flat table indexed by the
 * AddressSpace's dense block ids: the dispatch table (block -> trace),
 * the basic-block cache, and the trace-head counters. Blocks and
 * traces execute from predecoded instruction streams.
 * tests/test_frontend_identity.cc pins the logs and statistics of a
 * grid of live runs by committed digests.
 *
 * Simplification vs. DynamoRIO (documented in DESIGN.md): on a code
 * cache miss the trace is regenerated immediately rather than
 * re-warming its head counter, matching the cost composition of §6.2
 * (a conflict miss costs two context switches, one regeneration, one
 * copy); and traces stop at module boundaries so a fragment always
 * belongs to exactly one module.
 */

#ifndef GENCACHE_RUNTIME_RUNTIME_H
#define GENCACHE_RUNTIME_RUNTIME_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "codecache/tier_pipeline.h"
#include "guest/address_space.h"
#include "interp/interpreter.h"
#include "opt/passes.h"
#include "runtime/bb_cache.h"
#include "runtime/linker.h"
#include "runtime/trace.h"
#include "runtime/trace_head.h"
#include "tracelog/event.h"

namespace gencache::runtime {

/** Where the guest's retired instructions were executed. */
struct RuntimeStats
{
    std::uint64_t instructionsInterpreted = 0; ///< bb-cache path
    std::uint64_t instructionsInTraces = 0;    ///< trace cache path
    std::uint64_t contextSwitches = 0;
    std::uint64_t tracesBuilt = 0;
    std::uint64_t traceRegenerations = 0;
    std::uint64_t traceExecutions = 0;
    std::uint64_t blocksInterpreted = 0;
    std::uint64_t tracesOptimized = 0;
    std::uint64_t optimizerBytesSaved = 0;
    std::uint64_t optimizerInstsRemoved = 0;

    std::uint64_t totalInstructions() const
    {
        return instructionsInterpreted + instructionsInTraces;
    }

    /** Fraction of execution spent inside the trace cache. */
    double cacheResidency() const
    {
        std::uint64_t total = totalInstructions();
        return total == 0 ? 0.0
                          : static_cast<double>(instructionsInTraces) /
                                static_cast<double>(total);
    }
};

/** The dynamic optimizer. */
class Runtime : public cache::CacheEventListener
{
  public:
    /**
     * @param space the guest address space (modules must already be
     *        mapped or mapped later via loadModule)
     * @param manager the global code cache manager under test
     * @param trace_threshold trace-head executions before generation
     */
    Runtime(guest::AddressSpace &space, cache::TierPipeline &manager,
            std::uint32_t trace_threshold = kDefaultTraceThreshold);

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Map @p module and log the load event. */
    void loadModule(const guest::GuestModule &module);

    /** Unmap @p module: invalidates its basic blocks and traces
     *  everywhere and logs the unload event. */
    void unloadModule(guest::ModuleId module);

    /** Begin guest execution at @p entry. */
    void start(isa::GuestAddr entry);

    /** @return true when the guest has executed Halt. */
    bool finished() const { return state_.halted; }

    /**
     * Run until the guest halts or @p max_instructions more
     * instructions retire.
     * @return instructions retired by this call.
     */
    std::uint64_t run(std::uint64_t max_instructions = ~0ULL);

    /** Virtual time: total instructions retired so far. */
    TimeUs now() const { return interp_.instructionsRetired(); }

    const RuntimeStats &stats() const { return stats_; }

    const BbCacheStats &bbCacheStats() const { return bbCache_.stats(); }

    const TraceLinker &linker() const { return linker_; }
    const tracelog::AccessLog &log() const { return log_; }
    const interp::CpuState &cpu() const { return state_; }

    /** Read a guest register (phase tracking in harnesses). */
    std::int64_t guestReg(unsigned index) const
    {
        return state_.regs[index];
    }

    /** Number of distinct traces ever built. */
    std::size_t traceCount() const { return traces_.size(); }

    /** All live traces by id (introspection for the static checker;
     *  traces of unloaded modules are dropped). */
    const std::unordered_map<cache::TraceId, Trace> &traces() const
    {
        return traces_;
    }

    /** The managed code cache under test. */
    const cache::TierPipeline &manager() const { return manager_; }

    /** The guest address space (and its dense block index). */
    const guest::AddressSpace &space() const { return space_; }

    /** The dense dispatch table: dense block id -> trace id entered
     *  at that block, or cache::kInvalidTrace. Introspection for the
     *  static checker. */
    const std::vector<cache::TraceId> &dispatchTable() const
    {
        return traceIdOfBlock_;
    }

    /**
     * Install @p hook to run at phase boundaries: after every module
     * load/unload and at the end of each run() call. The static
     * checker's GENCACHE_CHECK support attaches its cheap passes here
     * (analysis::attachPhaseChecks); nullptr detaches.
     */
    void setCheckpointHook(std::function<void(const Runtime &)> hook)
    {
        checkpointHook_ = std::move(hook);
    }

    /** Enable/disable trace optimization (default: enabled). When
     *  enabled, freshly selected superblocks run through the opt
     *  pipeline and the *optimized* size is what the code cache
     *  stores. */
    void setOptimizeTraces(bool enabled)
    {
        optimizeTraces_ = enabled;
    }

    /// @name CacheEventListener (keeps the linker in sync; hits and
    /// misses are not observed).
    /// @{
    void onEvict(const cache::Fragment &frag, cache::Generation gen,
                 cache::EvictReason reason, TimeUs time) override;
    void onPromote(const cache::Fragment &frag, cache::Generation from,
                   cache::Generation to, TimeUs time) override;
    /// @}

  private:
    /** One dispatcher iteration: run a trace through the flat dispatch
     *  table or interpret a block. */
    void dispatch();

    /** Execute the resident trace in @p slot from its entry: its
     *  flattened predecoded stream, then direct chaining through the
     *  linker's cached successor slots. Works on dense TraceSlots, not
     *  canonical ids — canonical (module, offset) ids are sparse
     *  64-bit keys, so the flat hot-path tables index by slot.
     *  @return the slot tail-chained into, or kInvalidSlot when
     *  control returned to the dispatcher. */
    TraceSlot executeTrace(TraceSlot slot);

    /** Interpret block @p block (the dense id of the block at the
     *  current pc; kInvalidBlockId panics with mapping context)
     *  through the bb cache, maintaining trace-head counters and
     *  possibly entering trace generation. */
    void interpretBlock(guest::BlockId block);

    /** Record a new trace starting at the hot head @p head, the
     *  block at the current pc. */
    void buildTrace(guest::BlockId head);

    /** Re-insert a previously built trace after a cache miss. */
    bool regenerate(cache::TraceId id);

    /** Insert @p trace into the managed cache and link it. */
    bool installTrace(const Trace &trace);

    /** Register a freshly built trace in the dispatch tables. */
    Trace &registerTrace(cache::TraceId id, Trace trace);

    /** Grow the dense per-block side tables to the address space's
     *  current block-id limit (after every module load). */
    void syncBlockCapacity();

    guest::AddressSpace &space_;
    cache::TierPipeline &manager_;
    interp::Interpreter interp_;
    interp::CpuState state_;
    BasicBlockCache bbCache_;
    TraceHeadTable heads_;
    TraceBuilder builder_;
    TraceLinker linker_;
    opt::PassManager optimizer_ = opt::makeDefaultPipeline();
    bool optimizeTraces_ = true;
    tracelog::AccessLog log_;
    RuntimeStats stats_;
    std::function<void(const Runtime &)> checkpointHook_;

    std::unordered_map<cache::TraceId, Trace> traces_;
    /** Dense dispatch table: block id -> canonical id of the trace
     *  entered there. */
    std::vector<cache::TraceId> traceIdOfBlock_;
    /** Dense dispatch sidecar: block id -> slot of the trace entered
     *  there (the hot paths' flat-array handle for the same trace
     *  traceIdOfBlock_ names). */
    std::vector<TraceSlot> slotOfBlock_;
    /** Slot -> Trace lookup (pointers into traces_, whose nodes are
     *  address-stable; null once the trace is dropped). Slots are
     *  assigned sequentially at registration and never reused. */
    std::vector<Trace *> traceBySlot_;
    bool started_ = false;
};

} // namespace gencache::runtime

#endif // GENCACHE_RUNTIME_RUNTIME_H
