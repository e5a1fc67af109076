/**
 * @file
 * The trace-driven code cache simulator (paper §6).
 *
 * "DynamoRIO executed our benchmarks using an unbounded code cache,
 *  and we used the verbose log of cache accesses to drive our cache
 *  simulator."
 *
 * CacheSimulator replays an AccessLog against any CacheManager:
 * creations insert, executions look up (a miss regenerates and
 * re-inserts, paying the Table 2 costs through the attached
 * OverheadAccount), module unloads force invalidations, and pin/unpin
 * events toggle undeletability.
 *
 * This per-event loop is one of the two replay paths in the tree;
 * sim::BatchedReplay, the blocked kernel, runs every compiled-log
 * replay. It stays as the single reference the identity tests hold
 * the blocked kernel to (it replays the raw trace ids, so it also
 * checks the CompiledLog's dense remap), as the replay behind
 * analysis::runTemporalReplay and gencheck's sim/tier/journal
 * subjects, which attach a probe listener the blocked kernel does not
 * carry, and as logreplay_tool's one-shot replay of a loaded log.
 */

#ifndef GENCACHE_SIM_SIMULATOR_H
#define GENCACHE_SIM_SIMULATOR_H

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "codecache/cache_manager.h"
#include "costmodel/cost_model.h"
#include "tracelog/event.h"

namespace gencache::sim {

/** Everything one simulation run produces. */
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

/** Replays an access log against a cache manager. */
class CacheSimulator
{
  public:
    /**
     * @param manager the global scheme under test; the simulator
     *        installs its cost accountant as the manager's event
     *        listener.
     */
    explicit CacheSimulator(cache::CacheManager &manager);

    /** Replay @p log from the beginning and return the results. A
     *  trace created again after its module unloaded (a module
     *  reload) replays as a fresh trace; any other repeated creation
     *  panics. */
    SimResult run(const tracelog::AccessLog &log);

    /**
     * Install @p hook to run at replay phase boundaries: after every
     * ModuleLoad/ModuleUnload event and at the end of run(). The
     * static checker's GENCACHE_CHECK support attaches its cheap
     * passes here (analysis::attachPhaseChecks); nullptr detaches.
     */
    void setCheckpointHook(
        std::function<void(const cache::CacheManager &, TimeUs)> hook)
    {
        checkpointHook_ = std::move(hook);
    }

    /**
     * Attach @p probe as a second event listener beside the cost
     * accountant: a TeeListener fans every manager event out to the
     * accountant first, then the probe. The temporal invariant engine
     * (analysis::attachPhaseChecks, gencheck --journal) observes runs
     * through this. @p probe is not owned and must outlive the runs;
     * nullptr restores the accountant alone.
     */
    void setProbeListener(cache::CacheEventListener *probe)
    {
        if (probe == nullptr) {
            tee_.reset();
            manager_.setListener(&account_);
        } else {
            tee_.emplace(account_, *probe);
            manager_.setListener(&*tee_);
        }
    }

    /** The manager under simulation (probe attachment, checks). */
    const cache::CacheManager &manager() const { return manager_; }

  private:
    struct TraceInfo
    {
        std::uint32_t sizeBytes = 0;
        cache::ModuleId module = cache::kNoModule;
        bool pinnedWanted = false;
        std::size_t createdAt = 0; ///< event index of the creation
    };

    cache::CacheManager &manager_;
    cost::OverheadAccount account_;
    std::optional<cache::TeeListener> tee_; ///< set by setProbeListener
    std::function<void(const cache::CacheManager &, TimeUs)>
        checkpointHook_;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_SIMULATOR_H
