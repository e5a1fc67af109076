/**
 * @file
 * The paper's experimental methodology (§6), packaged:
 *
 *  1. replay the benchmark's log against an *unbounded* cache to find
 *     maxCache, the size that avoids all cache management;
 *  2. the baseline is a single pseudo-circular cache sized at
 *     maxCache * 0.5;
 *  3. generational configurations split the *same total* between
 *     nursery, probation, and persistent caches;
 *  4. compare miss rates (Fig 9), eliminated misses (Fig 10), and
 *     Table 2 instruction overheads (Fig 11).
 *
 * ExperimentRunner generates the benchmark's log once, up front,
 * straight into compiled form (workload::generateCompiledWorkload),
 * and holds only that compiled log; log() rebuilds the AccessLog on
 * its first call. Every step — unbounded, unified, generational —
 * replays the shared compiled log through the blocked kernel
 * (sim::BatchedReplay), pricing costs from one shared set of
 * CostTables: the baselines as one-lane passes, the layouts of
 * compare() as the lanes of a single pass. All replay entry points are
 * const and safe to call concurrently: each builds a private cache
 * hierarchy, so independent configurations can fan out across a
 * ThreadPool (see sim::runTournament). The unbounded pre-pass and the
 * unified baselines are memoized (keyed by capacity) so repeated
 * methodology steps never replay them twice.
 */

#ifndef GENCACHE_SIM_EXPERIMENT_H
#define GENCACHE_SIM_EXPERIMENT_H

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codecache/generational_cache.h"
#include "sim/batched_replay.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"
#include "tracelog/compiled_log.h"
#include "workload/profile.h"

namespace gencache::sim {

/** A named generational layout, e.g. "45-10-45 thr 1". */
struct GenerationalLayout
{
    std::string label;
    double nurseryFrac = 1.0 / 3.0;
    double probationFrac = 1.0 / 3.0;
    std::uint32_t promotionThreshold = 1;
    bool eagerPromotion = false;

    cache::GenerationalConfig toConfig(std::uint64_t total_bytes) const;
};

/** The three layouts Figure 9 evaluates. The paper names the first
 *  two explicitly (33-33-33 with threshold 10, and the overall winner
 *  45-10-45 with single-hit promotion); the middle point of the swept
 *  space is represented by 40-20-40 with threshold 5. */
std::vector<GenerationalLayout> paperLayouts();

/** The paper's fraction of maxCache given to managed caches. */
constexpr double kCachePressureFactor = 0.5;

/** The managed cache size for an unbounded peak of @p peak_bytes:
 *  @p factor of the peak, rounded to the nearest byte, and never
 *  below one 4 KiB page. */
std::uint64_t managedCapacityBytes(
    std::uint64_t peak_bytes, double factor = kCachePressureFactor);

/** All per-benchmark results of the §6 methodology. */
struct BenchmarkComparison
{
    std::string benchmark;
    workload::Suite suite = workload::Suite::SpecInt;

    std::uint64_t maxCacheBytes = 0; ///< unbounded peak (Fig 1)
    std::uint64_t capacityBytes = 0; ///< managed size (0.5 * max)

    SimResult unbounded;
    SimResult unified;
    std::vector<SimResult> generational; ///< one per layout

    /** Fig 9: miss rate reduction (%) of layout @p i vs unified;
     *  positive is better. */
    double missRateReductionPct(std::size_t i) const;

    /** Fig 10: absolute misses eliminated by layout @p i (can be
     *  negative when the layout loses). */
    std::int64_t missesEliminated(std::size_t i) const;

    /** Fig 11: total instruction overhead of layout @p i as a
     *  percentage of the unified overhead (smaller is better). */
    double overheadRatioPct(std::size_t i) const;
};

/** Runs the full methodology for one benchmark profile. */
class ExperimentRunner
{
  public:
    /** Generates the compiled log eagerly; the runner is immutable
     *  afterwards (modulo memoization) and all replay methods are
     *  const and thread-safe. */
    explicit ExperimentRunner(workload::BenchmarkProfile profile);

    /** The benchmark's access log, rebuilt from compiled() in one
     *  pass on the first call, then kept. */
    const tracelog::AccessLog &log() const;

    /** The log in columnar, dense-id form, shared read-only by every
     *  batched replay. */
    const tracelog::CompiledLog &compiled() const { return compiled_; }

    /** Table 2 cost formulas evaluated once per trace of compiled().
     *  Built on first use, then shared read-only by every blocked
     *  replay (and the tournament's thousands of configurations). */
    const CostTables &costTables() const;

    /** Step 1: unbounded replay of compiled() as a one-lane blocked
     *  pass; its peakBytes, sampled after every insert, is maxCache.
     *  Memoized. */
    SimResult runUnbounded() const;

    /** Replay compiled() against a unified pseudo-circular cache of
     *  @p capacity_bytes as a one-lane blocked pass sharing
     *  costTables(). Memoized per capacity. */
    SimResult runUnified(std::uint64_t capacity_bytes) const;

    /** Replay every layout in @p layouts (all splitting
     *  @p total_bytes) in ONE blocked pass over the compiled log
     *  (sim::BatchedReplay). Returns one SimResult per layout, in
     *  order, each labelled with its layout. */
    std::vector<SimResult> runGenerationalBatch(
        std::uint64_t total_bytes,
        const std::vector<GenerationalLayout> &layouts) const;

    /** Replay every topology in @p topologies (all over a
     *  @p total_bytes budget) in ONE blocked pass over the compiled
     *  log. Each result is labelled with its topology's name. */
    std::vector<SimResult> runTopologyBatch(
        std::uint64_t total_bytes,
        const std::vector<cache::TierTopology> &topologies) const;

    /** The whole §6 pipeline with the given layouts: the memoized
     *  baselines, then every layout as one lane of a single
     *  runGenerationalBatch() pass at managedCapacityBytes() of the
     *  unbounded peak. @p pool is ignored: the layouts share one
     *  stream of the compiled log, and giving each its own pass on a
     *  pool measured no faster than the single pass. GENCACHE_THREADS
     *  does not reach compare(). */
    BenchmarkComparison compare(
        const std::vector<GenerationalLayout> &layouts,
        ThreadPool *pool = nullptr) const;

    const workload::BenchmarkProfile &profile() const
    {
        return profile_;
    }

  private:
    workload::BenchmarkProfile profile_;
    tracelog::CompiledLog compiled_;

    mutable std::once_flag logOnce_;
    mutable std::unique_ptr<tracelog::AccessLog> log_;

    mutable Mutex memoMutex_;
    mutable std::optional<SimResult> unbounded_
        GENCACHE_GUARDED_BY(memoMutex_);
    mutable std::map<std::uint64_t, SimResult> unifiedByCapacity_
        GENCACHE_GUARDED_BY(memoMutex_);

    mutable std::once_flag costTablesOnce_;
    mutable std::unique_ptr<CostTables> costTables_;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_EXPERIMENT_H
