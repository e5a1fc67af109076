/**
 * @file
 * Single-pass batched multi-configuration replay.
 *
 * The sweep workload replays the same access log against K cache
 * managers (e.g. the four promotion thresholds of one sweep point).
 * Running K independent CacheSimulators costs O(K * events) of log
 * decode and event dispatch. BatchedReplay streams a CompiledLog
 * once and advances every registered lane, paying the decode and
 * dispatch cost once: O(events + K * manager work).
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
 * and unified adapters), so the hot calls devirtualize against the
 * pipeline's final methods; lanes whose pipeline accepts
 * enableFastReplay() serve their hits from its dense sidecar.
 *
 * Results are bit-identical to running the per-event
 * CacheSimulator::run(AccessLog) once per lane (pinned by
 * tests/test_replay_identity.cc): per-lane event order is preserved
 * (lanes are independent, so reordering chunk x lane changes nothing a
 * lane can observe), the cost tables hold the exact values the live
 * formulas produce, and execPinned() is the pin state the simulator's
 * per-trace registry holds at each event. Checkpoint hooks fire per
 * lane at the same module events; a lane block finishes its hooks
 * before the next block starts.
 *
 * Each lane drives one caller-owned pipeline and owns its
 * table-priced cost accounting (installed as the pipeline's listener)
 * and its SimResult.
 */

#ifndef GENCACHE_SIM_BATCHED_REPLAY_H
#define GENCACHE_SIM_BATCHED_REPLAY_H

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/cost_tables.h"
#include "sim/simulator.h"
#include "tracelog/compiled_log.h"

namespace gencache::cache {
class TierPipeline;
} // namespace gencache::cache

namespace gencache::sim {

/** Replays one compiled log against K cache managers in one pass. */
class BatchedReplay
{
  public:
    /** Lanes per block of the blocked kernel: small enough that the
     *  block's manager state stays cache-resident across one chunk,
     *  large enough to amortize streaming the chunk columns. */
    static constexpr std::size_t kLaneBlock = 8;

    /** @param log compiled log to stream; must outlive the replay. */
    explicit BatchedReplay(const tracelog::CompiledLog &log);

    ~BatchedReplay();

    /**
     * Register @p pipeline as a replay lane and return its lane index.
     * When the replay begins it installs the lane's table-priced cost
     * accounting as the pipeline's event listener. Pipelines must be
     * freshly constructed: the replay switches their residency
     * indexes to dense storage via prepareDenseIds(). Panics once the
     * replay has begun.
     */
    std::size_t addLane(cache::TierPipeline &pipeline);

    /**
     * Install @p hook to run per lane at replay phase boundaries
     * (after ModuleLoad/ModuleUnload events and at the end of run()),
     * mirroring CacheSimulator::setCheckpointHook.
     */
    void setCheckpointHook(
        std::function<void(const cache::CacheManager &, TimeUs)> hook)
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

    /** @return chunks already replayed (monotonic progress). */
    std::size_t chunkCursor() const { return chunkCursor_; }

    /** Finish a begin()/step() replay: flush fast counters, fire the
     *  end-of-run checkpoint, and return the per-lane results. */
    std::vector<SimResult> finish();

  private:
    struct Lane
    {
        cache::TierPipeline *pipeline = nullptr;
        bool fast = false; ///< pipeline accepted enableFastReplay()
        std::unique_ptr<TableOverheadListener> account;
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

    const tracelog::CompiledLog &log_;
    std::vector<Lane> lanes_;
    bool begun_ = false;
    std::size_t chunkCursor_ = 0;
    const CostTables *sharedTables_ = nullptr;
    std::optional<CostTables> ownedTables_;
    std::function<void(const cache::CacheManager &, TimeUs)>
        checkpointHook_;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_BATCHED_REPLAY_H
