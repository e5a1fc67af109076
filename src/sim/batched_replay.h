/**
 * @file
 * The trace-driven replay loop (paper §6): one pass over a compiled
 * access log advances any number of cache pipelines.
 *
 * "DynamoRIO executed our benchmarks using an unbounded code cache,
 *  and we used the verbose log of cache accesses to drive our cache
 *  simulator."
 *
 * Per lane, creations insert; executions look up, and a miss
 * regenerates and re-inserts the trace (re-applying a pin the log
 * still holds on it); module unloads force invalidations; pin and
 * unpin events toggle undeletability. A trace created again after its
 * module unloaded is a fresh trace: compile() gave it its own dense
 * id. Table 2 costs come from a table-priced accountant
 * (TableOverheadListener), installed as each lane's listener.
 *
 * The sweep workload replays the same log against K pipelines (e.g.
 * the four promotion thresholds of one sweep point). BatchedReplay
 * streams the CompiledLog once and advances every registered lane,
 * paying decode and dispatch once: O(events + K * manager work).
 *
 * The loop nest is chunk x lane block x event: the kernel iterates
 * the CompiledLog's cache-sized chunks, sweeping a block of
 * kLaneBlock lanes per chunk so the event columns stay hot in cache
 * across lanes. Per-event branches are hoisted: pure-exec chunks (the
 * vast majority) run a switch-free inner loop with the lookup counters
 * tallied per chunk, pin intent comes from the precomputed
 * execPinned() column instead of shared mutable state, and Table 2
 * costs come from precomputed per-trace CostTables instead of
 * per-event pow()/llround() evaluations. Every lane is a
 * cache::TierPipeline (a catalog topology or one of the generational
 * and unified adapters), the one cache type, whose members are not
 * virtual, so the hot calls are direct; lanes whose pipeline accepts
 * enableFastReplay() serve their hits from its dense sidecar.
 *
 * Lanes are independent, so reordering chunk x lane changes nothing a
 * lane can observe: a lane's results do not depend on how many lanes
 * share its pass. Checkpoint hooks fire per lane at the same module
 * events; a lane block finishes its hooks before the next block
 * starts. What each lane produces is pinned by committed rows
 * (tests/test_replay_identity.cc) and checked against an independent
 * Figure-8 model on random topologies and logs
 * (tests/test_tier_oracle.cc).
 *
 * Each lane drives one caller-owned pipeline and owns its
 * table-priced cost accounting, an optional probe listener teed in
 * after it (the temporal checker, stream capture in tests), and its
 * SimResult. The probe sees the log's dense ids; log().originalIds()
 * translates them back.
 *
 * A replay built from an AccessLog compiles it in windows of
 * kWindowEvents events (tracelog::CompiledLogWindows) and holds one
 * window's columns at a time, so a one-off pass (runTemporalReplay)
 * costs memory in traces, not events. Its chunks are the whole-log
 * compile's chunks, so each lane produces what it would on the whole
 * compiled log.
 */

#ifndef GENCACHE_SIM_BATCHED_REPLAY_H
#define GENCACHE_SIM_BATCHED_REPLAY_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codecache/cache_manager.h"
#include "costmodel/cost_model.h"
#include "sim/cost_tables.h"
#include "tracelog/compiled_log.h"

namespace gencache::cache {
class TierPipeline;
} // namespace gencache::cache

namespace gencache::sim {

/** Everything one lane of a replay produces. */
struct SimResult
{
    std::string benchmark;
    std::string manager;

    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t regenerations = 0;   ///< misses that re-inserted
    std::uint64_t peakBytes = 0;       ///< peak cache occupancy
    std::uint64_t createdTraces = 0;
    std::uint64_t createdBytes = 0;

    cache::ManagerStats managerStats;
    cost::OverheadBreakdown overhead;

    double missRate() const
    {
        return lookups == 0 ? 0.0
                            : static_cast<double>(misses) /
                                  static_cast<double>(lookups);
    }
};

/** Replays one compiled log against K cache managers in one pass. */
class BatchedReplay
{
  public:
    /** Lanes per block of the blocked kernel: small enough that the
     *  block's manager state stays cache-resident across one chunk,
     *  large enough to amortize streaming the chunk columns. */
    static constexpr std::size_t kLaneBlock = 8;

    /** Events per window of a replay built from an AccessLog. */
    static constexpr std::size_t kWindowEvents =
        4 * tracelog::CompiledLog::kChunkEvents;

    /** @param log compiled log to stream; must outlive the replay. */
    explicit BatchedReplay(const tracelog::CompiledLog &log);

    /** @param log log to compile window by window and stream; must
     *  outlive the replay. */
    explicit BatchedReplay(const tracelog::AccessLog &log);

    ~BatchedReplay();

    /**
     * Register @p pipeline as a replay lane and return its lane index.
     * When the replay begins it installs the lane's table-priced cost
     * accounting as the pipeline's event listener, with @p probe (not
     * owned; it must outlive the replay) teed in after it through a
     * cache::TeeListener. The probe sees the log's dense trace ids;
     * log().originalIds() maps them back to the ids of the source
     * log. A probe that wants hit or miss events keeps its lane off
     * the fast-replay sidecar path. Pipelines must be freshly
     * constructed: the replay switches their residency indexes to
     * dense storage via prepareDenseIds(). Panics once the replay has
     * begun.
     */
    std::size_t addLane(cache::TierPipeline &pipeline,
                        cache::CacheEventListener *probe = nullptr);

    /** The compiled log this replay streams (the current window of
     *  a replay built from an AccessLog). */
    const tracelog::CompiledLog &log() const { return log_; }

    /**
     * Install @p hook to run per lane at replay phase boundaries:
     * after every ModuleLoad/ModuleUnload event and at the end of the
     * replay. The static checker's GENCACHE_CHECK support attaches its
     * cheap passes here (analysis::attachPhaseChecks).
     */
    void setCheckpointHook(
        std::function<void(const cache::TierPipeline &, TimeUs)> hook)
    {
        checkpointHook_ = std::move(hook);
    }

    /**
     * Share precomputed cost tables. They must have been built from
     * this replay's log with the default cost::CostModel (which is
     * stateless, so one table set serves every lane). Without this,
     * the replay builds a private set; sharing matters when many
     * replays stream the same profile (sweeps, the tournament).
     * Panics once the replay has begun (begin() reads the tables).
     */
    void setCostTables(const CostTables *tables);

    /**
     * Stream the log once, advancing all lanes. Returns one SimResult
     * per lane, in addLane() order. Call at most once, and not
     * together with begin()/step()/finish().
     */
    std::vector<SimResult> run();

    // --- incremental stepping (sim::FleetSimulator) -----------------
    //
    // A fleet round-robins K per-process replays over K distinct
    // logs, so no single run() can drive them: each replay instead
    // exposes its chunk loop as begin() / step() / finish(). Stepping
    // in whole chunks keeps results bit-identical to run() — chunk
    // order per lane is the only order the kernel guarantees anyway.

    /** Prepare all lanes (dense ids, cost tables, listeners, fast
     *  flags). Call once, before the first step(). */
    void begin();

    /** Advance every lane by up to @p chunk_budget chunks. @return
     *  false when the log is exhausted (nothing was advanced). */
    bool step(std::size_t chunk_budget);

    /** Finish a begin()/step() replay: flush fast counters, fire the
     *  end-of-run checkpoint, and return the per-lane results. */
    std::vector<SimResult> finish();

  private:
    struct Lane
    {
        cache::TierPipeline *pipeline = nullptr;
        cache::CacheEventListener *probe = nullptr;
        bool fast = false; ///< pipeline accepted enableFastReplay()
        std::unique_ptr<TableOverheadListener> account;
        std::unique_ptr<cache::TeeListener> tee; ///< account, then probe
        SimResult result;
    };

    /** Replay @p chunk on @p lane through its fastest legal path. */
    void replayChunk(Lane &lane,
                     const tracelog::CompiledLog::Chunk &chunk);

    void runChunk(Lane &lane, const tracelog::CompiledLog::Chunk &chunk);

    /** Chunk replay through the pipeline's dense hit-slot sidecar
     *  (single cache line per hit); barrier chunks delegate to
     *  runChunk. */
    void runChunkFast(Lane &lane,
                      const tracelog::CompiledLog::Chunk &chunk);

    /** Compile the next window, if the replay has windows and one is
     *  left, and rewind the chunk cursor to it. */
    bool nextWindow();

    std::unique_ptr<tracelog::CompiledLogWindows> windows_;
    const tracelog::CompiledLog &log_;
    std::vector<Lane> lanes_;
    bool begun_ = false;
    std::size_t chunkCursor_ = 0; ///< chunks of log_ replayed
    const CostTables *sharedTables_ = nullptr;
    std::optional<CostTables> ownedTables_;
    std::function<void(const cache::TierPipeline &, TimeUs)>
        checkpointHook_;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_BATCHED_REPLAY_H
