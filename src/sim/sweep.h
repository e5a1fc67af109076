/**
 * @file
 * Design-space sweeps over generational configurations (paper §6.1).
 *
 * "We swept the space of generational code cache sizes to determine
 *  the cache proportions that result in the lowest miss rates for
 *  each application."
 *
 * runSweep() replays one benchmark against a grid of
 * (proportion, threshold) points, all at the same total budget, and
 * reports miss-rate reductions relative to the unified baseline plus
 * the best point found. Each sweep point's threshold column is one
 * blocked BatchedReplay pass over the runner's compiled log.
 */

#ifndef GENCACHE_SIM_SWEEP_H
#define GENCACHE_SIM_SWEEP_H

#include <string>
#include <vector>

#include "sim/experiment.h"

namespace gencache::sim {

/** One (nursery, probation) proportion pair of the sweep grid. */
struct SweepPoint
{
    double nurseryFrac = 1.0 / 3.0;
    double probationFrac = 1.0 / 3.0;

    /** "45-10-45"-style label. */
    std::string label() const;
};

/** Result of one grid cell. */
struct SweepCell
{
    SweepPoint point;
    std::uint32_t threshold = 1;
    double missRate = 0.0;
    double missRateReductionPct = 0.0; ///< vs the unified baseline
    std::uint64_t promotions = 0;
};

/** Full sweep output for one benchmark. */
struct SweepResult
{
    std::string benchmark;
    std::uint64_t capacityBytes = 0;
    double unifiedMissRate = 0.0;
    std::vector<SweepCell> cells; ///< row-major: points x thresholds

    /** @return the cell with the highest miss-rate reduction;
     *  panics when the sweep is empty. */
    const SweepCell &best() const;

    /** @return the cell for (point_index, threshold_index). */
    const SweepCell &at(std::size_t point_index,
                        std::size_t threshold_index,
                        std::size_t threshold_count) const;
};

/** The default §6.1 grid: six proportion points, four thresholds. */
std::vector<SweepPoint> defaultSweepPoints();
std::vector<std::uint32_t> defaultSweepThresholds();

/**
 * Run the sweep for @p profile: unbounded pre-pass, unified baseline
 * at half the peak, then every (point, threshold) cell.
 *
 * Sweep points are independent — each threshold column owns private
 * cache hierarchies and replays the runner's shared immutable log — so
 * they fan out across a ThreadPool, one point per task. @p threads
 * selects the worker count: 0 obeys the environment
 * (GENCACHE_THREADS, else hardware concurrency), 1 forces the fully
 * serial path, N uses N workers. Cell results are identical regardless
 * of thread count.
 */
SweepResult runSweep(const workload::BenchmarkProfile &profile,
                     const std::vector<SweepPoint> &points,
                     const std::vector<std::uint32_t> &thresholds,
                     std::size_t threads = 0);

/** As above, but over a caller-owned @p runner whose workload is
 *  already generated (benchmarks use this to time pure replay). */
SweepResult runSweep(const ExperimentRunner &runner,
                     const std::vector<SweepPoint> &points,
                     const std::vector<std::uint32_t> &thresholds,
                     std::size_t threads = 0);

/** Result of one topology of a topology sweep. */
struct TopologyCell
{
    std::string topology;      ///< TierTopology::name
    std::size_t tierCount = 0;
    double missRate = 0.0;
    double missRateReductionPct = 0.0; ///< vs the unified baseline
    std::uint64_t promotions = 0;
    std::uint64_t overheadInstrs = 0;  ///< Table 2 cost-model total
};

/** Full topology-sweep output for one benchmark. */
struct TopologySweepResult
{
    std::string benchmark;
    std::uint64_t capacityBytes = 0;
    double unifiedMissRate = 0.0;
    std::vector<TopologyCell> cells; ///< one per topology, in order

    /** @return the cell with the highest miss-rate reduction;
     *  panics when the sweep is empty. */
    const TopologyCell &best() const;
};

/**
 * Sweep arbitrary tier topologies (the pipeline generalization of the
 * proportion grid): unbounded pre-pass, unified baseline at half the
 * peak, then every topology in @p topologies over the same budget via
 * batched replay. @p threads fans topology chunks out across a
 * ThreadPool (0 obeys GENCACHE_THREADS); results are identical
 * regardless of thread count.
 */
TopologySweepResult runTopologySweep(
    const ExperimentRunner &runner,
    const std::vector<cache::TierTopology> &topologies,
    std::size_t threads = 0);

/** As above, generating @p profile's workload first. */
TopologySweepResult runTopologySweep(
    const workload::BenchmarkProfile &profile,
    const std::vector<cache::TierTopology> &topologies,
    std::size_t threads = 0);

} // namespace gencache::sim

#endif // GENCACHE_SIM_SWEEP_H
