/**
 * @file
 * Fleet simulation: K guest processes sharing one code store.
 *
 * The paper simulates one process at a time; the cross-process shared
 * tier (codecache/shared_store.h) only shows its value — and its
 * hazards — when several processes run at once. FleetSimulator drives
 * K per-process replays, each a single-lane BatchedReplay over that
 * process's own CompiledLog and private TierPipeline, with every
 * pipeline optionally mounting one SharedCodeStore.
 *
 * Two drivers:
 *
 *  - run() round-robins the processes on one thread, a fixed quantum
 *    of replay chunks per turn. Fully deterministic: the same logs
 *    and options always produce the same results and the same shared
 *    store end state — this is what benches and equivalence tests
 *    use. With sharing off it degenerates to K independent replays,
 *    bit-identical to running each log through BatchedReplay alone.
 *  - runThreaded() gives every process its own thread, so probes,
 *    publishes, and cross-process invalidations genuinely race on
 *    the store's shard locks. Each process's replay order stays
 *    private, but probe outcomes depend on the racing store contents,
 *    so hit/miss counts may vary between runs; the store's structural
 *    invariants (validate(), the shr-* passes) must hold under any
 *    interleaving. This is the TSan stress surface.
 *
 * The simulator keeps the pipelines and the store alive after the
 * run, so shr-* analysis passes and tests can inspect end states.
 */

#ifndef GENCACHE_SIM_FLEET_H
#define GENCACHE_SIM_FLEET_H

#include <memory>
#include <string>
#include <vector>

#include "codecache/shared_store.h"
#include "codecache/tier_pipeline.h"
#include "sim/batched_replay.h"
#include "tracelog/compiled_log.h"

namespace gencache::sim {

/** Fleet-wide configuration. */
struct FleetOptions
{
    std::string topology = "2tier";     ///< catalog topology name
    std::uint64_t budgetBytes = 256 * 1024; ///< per-process private
    bool sharing = true;                ///< mount the shared store
    cache::SharedStoreConfig store;     ///< shared-store sizing
    unsigned chunksPerTurn = 4;         ///< round-robin quantum
};

/** One process's outcome. */
struct FleetProcessResult
{
    SimResult sim;
    cache::TierPipeline::SharedTierStats sharedTier;
};

/** Everything a fleet run produces. */
struct FleetResult
{
    std::vector<FleetProcessResult> processes;
    bool sharing = false;

    // Shared-store end state (zero when sharing is off).
    cache::SharedStoreStats storeStats;
    std::uint64_t storePeakUsedBytes = 0;
    std::uint64_t storePeakClaimedBytes = 0;
    std::uint64_t storeEntries = 0;

    /** Peak bytes the fleet would additionally have spent had every
     *  attached process kept a private copy of its shared traces —
     *  the store's dedup saving. */
    std::uint64_t dedupSavedBytes() const
    {
        return storePeakClaimedBytes - storePeakUsedBytes;
    }
};

/** Round-robins K per-process replays over one shared store. */
class FleetSimulator
{
  public:
    /**
     * @param logs one compiled log per process (canonical trace ids);
     *        must outlive the simulator.
     */
    FleetSimulator(const std::vector<tracelog::CompiledLog> &logs,
                   FleetOptions options);

    ~FleetSimulator();

    /** Deterministic single-thread round-robin. Call at most once
     *  per simulator (and not after runThreaded()). */
    FleetResult run();

    /** One thread per process, racing on the store's shard locks.
     *  Same call-once contract as run(). */
    FleetResult runThreaded();

    unsigned processCount() const
    {
        return static_cast<unsigned>(processes_.size());
    }

    /** Post-run introspection (shr-* passes, tests). */
    const cache::TierPipeline &pipeline(unsigned process) const
    {
        return *processes_[process].pipeline;
    }

    /** The mounted store; nullptr when sharing is off. */
    const cache::SharedCodeStore *store() const
    {
        return store_.get();
    }

  private:
    struct Process
    {
        const tracelog::CompiledLog *log = nullptr;
        std::unique_ptr<cache::TierPipeline> pipeline;
        std::unique_ptr<BatchedReplay> replay;
    };

    FleetResult collect();

    FleetOptions options_;
    std::vector<Process> processes_;
    std::unique_ptr<cache::SharedCodeStore> store_;
    bool ran_ = false;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_FLEET_H
