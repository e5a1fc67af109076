#include "sim/sweep.h"

#include <cmath>

#include "support/format.h"
#include "support/logging.h"

namespace gencache::sim {

std::string
SweepPoint::label() const
{
    int nursery = static_cast<int>(std::llround(nurseryFrac * 100));
    int probation =
        static_cast<int>(std::llround(probationFrac * 100));
    return format("{}-{}-{}", nursery, probation,
                  100 - nursery - probation);
}

const SweepCell &
SweepResult::best() const
{
    if (cells.empty()) {
        GENCACHE_PANIC("best() on an empty sweep");
    }
    const SweepCell *winner = &cells.front();
    for (const SweepCell &cell : cells) {
        if (cell.missRateReductionPct >
            winner->missRateReductionPct) {
            winner = &cell;
        }
    }
    return *winner;
}

const SweepCell &
SweepResult::at(std::size_t point_index, std::size_t threshold_index,
                std::size_t threshold_count) const
{
    std::size_t index =
        point_index * threshold_count + threshold_index;
    if (index >= cells.size()) {
        GENCACHE_PANIC("sweep cell ({}, {}) out of range",
                       point_index, threshold_index);
    }
    return cells[index];
}

std::vector<SweepPoint>
defaultSweepPoints()
{
    return {
        {1.0 / 3.0, 1.0 / 3.0}, {0.45, 0.10}, {0.40, 0.20},
        {0.25, 0.50},           {0.60, 0.10}, {0.10, 0.45},
    };
}

std::vector<std::uint32_t>
defaultSweepThresholds()
{
    return {1, 5, 10, 50};
}

SweepResult
runSweep(const workload::BenchmarkProfile &profile,
         const std::vector<SweepPoint> &points,
         const std::vector<std::uint32_t> &thresholds)
{
    ExperimentRunner runner(profile);
    return runSweep(runner, points, thresholds);
}

SweepResult
runSweep(const ExperimentRunner &runner,
         const std::vector<SweepPoint> &points,
         const std::vector<std::uint32_t> &thresholds)
{
    if (points.empty() || thresholds.empty()) {
        fatal("sweep needs at least one point and one threshold");
    }
    const workload::BenchmarkProfile &profile = runner.profile();
    SimResult unbounded = runner.runUnbounded();

    SweepResult result;
    result.benchmark = profile.name;
    result.capacityBytes = managedCapacityBytes(unbounded.peakBytes);

    SimResult unified = runner.runUnified(result.capacityBytes);
    result.unifiedMissRate = unified.missRate();

    // One streaming pass per sweep point: the point's whole threshold
    // column advances lane-by-lane through a single decode of the
    // compiled log. Cells are row-major: points x thresholds.
    result.cells.reserve(points.size() * thresholds.size());
    for (const SweepPoint &point : points) {
        std::vector<GenerationalLayout> layouts;
        layouts.reserve(thresholds.size());
        for (std::uint32_t threshold : thresholds) {
            GenerationalLayout layout;
            layout.label = format("{} thr {}", point.label(),
                                  threshold);
            layout.nurseryFrac = point.nurseryFrac;
            layout.probationFrac = point.probationFrac;
            layout.promotionThreshold = threshold;
            layouts.push_back(std::move(layout));
        }
        const std::vector<SimResult> sims =
            runner.runGenerationalBatch(result.capacityBytes, layouts);
        for (std::size_t i = 0; i < sims.size(); ++i) {
            SweepCell cell;
            cell.point = point;
            cell.threshold = thresholds[i];
            cell.missRate = sims[i].missRate();
            cell.promotions = sims[i].managerStats.promotions;
            cell.missRateReductionPct =
                unified.missRate() > 0.0
                    ? (1.0 - sims[i].missRate() / unified.missRate()) *
                          100.0
                    : 0.0;
            result.cells.push_back(cell);
        }
    }
    return result;
}

} // namespace gencache::sim
