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
 * at half the peak, then every (point, threshold) cell. Each point's
 * threshold column is one blocked pass over the runner's compiled
 * log, the points one after another on the calling thread; a caller
 * that sweeps many profiles runs one sweep per pool task instead
 * (bench/paper_figures.h does).
 */
SweepResult runSweep(const workload::BenchmarkProfile &profile,
                     const std::vector<SweepPoint> &points,
                     const std::vector<std::uint32_t> &thresholds);

/** As above, but over a caller-owned @p runner whose workload is
 *  already generated, sharing its memoized baselines. */
SweepResult runSweep(const ExperimentRunner &runner,
                     const std::vector<SweepPoint> &points,
                     const std::vector<std::uint32_t> &thresholds);

} // namespace gencache::sim

#endif // GENCACHE_SIM_SWEEP_H
