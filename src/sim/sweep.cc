#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <future>

#include "support/format.h"
#include "support/logging.h"
#include "support/thread_pool.h"

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
         const std::vector<std::uint32_t> &thresholds,
         std::size_t threads, ReplayEngine engine)
{
    ExperimentRunner runner(profile);
    return runSweep(runner, points, thresholds, threads, engine);
}

SweepResult
runSweep(const ExperimentRunner &runner,
         const std::vector<SweepPoint> &points,
         const std::vector<std::uint32_t> &thresholds,
         std::size_t threads, ReplayEngine engine)
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

    // The grid, row-major. Cells are filled by index so the parallel
    // fan-out preserves the serial cell order exactly.
    std::vector<GenerationalLayout> layouts;
    layouts.reserve(points.size() * thresholds.size());
    for (const SweepPoint &point : points) {
        for (std::uint32_t threshold : thresholds) {
            GenerationalLayout layout;
            layout.label = format("{} thr {}", point.label(),
                                  threshold);
            layout.nurseryFrac = point.nurseryFrac;
            layout.probationFrac = point.probationFrac;
            layout.promotionThreshold = threshold;
            layouts.push_back(std::move(layout));
        }
    }

    auto to_cell = [&](std::size_t index, const SimResult &sim) {
        SweepCell cell;
        cell.point = points[index / thresholds.size()];
        cell.threshold = layouts[index].promotionThreshold;
        cell.missRate = sim.missRate();
        cell.promotions = sim.managerStats.promotions;
        cell.missRateReductionPct =
            unified.missRate() > 0.0
                ? (1.0 - sim.missRate() / unified.missRate()) * 100.0
                : 0.0;
        return cell;
    };

    if (threads == 0) {
        threads = ThreadPool::defaultThreadCount();
    }

    if (engine != ReplayEngine::Legacy) {
        // One streaming pass per sweep point: the point's whole
        // threshold column advances lane-by-lane through a single
        // decode of the compiled log.
        const ReplayKernel kernel =
            engine == ReplayEngine::BatchedReference
                ? ReplayKernel::Reference
                : ReplayKernel::Blocked;
        const std::size_t row = thresholds.size();
        auto run_row = [&](std::size_t point_index) {
            std::vector<GenerationalLayout> row_layouts(
                layouts.begin() +
                    static_cast<std::ptrdiff_t>(point_index * row),
                layouts.begin() +
                    static_cast<std::ptrdiff_t>((point_index + 1) *
                                                row));
            std::vector<SimResult> sims = runner.runGenerationalBatch(
                result.capacityBytes, row_layouts, kernel);
            std::vector<SweepCell> cells;
            cells.reserve(row);
            for (std::size_t i = 0; i < sims.size(); ++i) {
                cells.push_back(
                    to_cell(point_index * row + i, sims[i]));
            }
            return cells;
        };

        result.cells.reserve(layouts.size());
        if (threads <= 1 || points.size() <= 1) {
            for (std::size_t pi = 0; pi < points.size(); ++pi) {
                std::vector<SweepCell> cells = run_row(pi);
                result.cells.insert(result.cells.end(), cells.begin(),
                                    cells.end());
            }
            return result;
        }
        ThreadPool pool(std::min<std::size_t>(threads, points.size()));
        std::vector<std::future<std::vector<SweepCell>>> futures;
        futures.reserve(points.size());
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
            futures.push_back(
                pool.submit([&run_row, pi]() { return run_row(pi); }));
        }
        for (std::future<std::vector<SweepCell>> &future : futures) {
            std::vector<SweepCell> cells = future.get();
            result.cells.insert(result.cells.end(), cells.begin(),
                                cells.end());
        }
        return result;
    }

    auto run_cell = [&](std::size_t index) {
        return to_cell(index, runner.runGenerational(
                                  result.capacityBytes,
                                  layouts[index]));
    };

    if (threads <= 1 || layouts.size() <= 1) {
        result.cells.reserve(layouts.size());
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            result.cells.push_back(run_cell(i));
        }
        return result;
    }

    ThreadPool pool(std::min<std::size_t>(threads, layouts.size()));
    std::vector<std::future<SweepCell>> futures;
    futures.reserve(layouts.size());
    for (std::size_t i = 0; i < layouts.size(); ++i) {
        futures.push_back(
            pool.submit([&run_cell, i]() { return run_cell(i); }));
    }
    result.cells.reserve(layouts.size());
    for (std::future<SweepCell> &future : futures) {
        result.cells.push_back(future.get());
    }
    return result;
}

const TopologyCell &
TopologySweepResult::best() const
{
    if (cells.empty()) {
        GENCACHE_PANIC("best() on an empty topology sweep");
    }
    const TopologyCell *winner = &cells.front();
    for (const TopologyCell &cell : cells) {
        if (cell.missRateReductionPct > winner->missRateReductionPct) {
            winner = &cell;
        }
    }
    return *winner;
}

TopologySweepResult
runTopologySweep(const ExperimentRunner &runner,
                 const std::vector<cache::TierTopology> &topologies,
                 std::size_t threads)
{
    if (topologies.empty()) {
        fatal("topology sweep needs at least one topology");
    }
    SimResult unbounded = runner.runUnbounded();

    TopologySweepResult result;
    result.benchmark = runner.profile().name;
    result.capacityBytes = managedCapacityBytes(unbounded.peakBytes);

    SimResult unified = runner.runUnified(result.capacityBytes);
    result.unifiedMissRate = unified.missRate();

    auto to_cell = [&](const cache::TierTopology &topology,
                       const SimResult &sim) {
        TopologyCell cell;
        cell.topology = topology.name;
        cell.tierCount = topology.fractions.size();
        cell.missRate = sim.missRate();
        cell.promotions = sim.managerStats.promotions;
        cell.overheadInstrs = sim.overhead.total();
        cell.missRateReductionPct =
            unified.missRate() > 0.0
                ? (1.0 - sim.missRate() / unified.missRate()) * 100.0
                : 0.0;
        return cell;
    };

    if (threads == 0) {
        threads = ThreadPool::defaultThreadCount();
    }

    if (threads <= 1 || topologies.size() <= 1) {
        // Serial: one streaming pass over the compiled log advances
        // every topology lane at once.
        std::vector<SimResult> sims = runner.runTopologyBatch(
            result.capacityBytes, topologies);
        result.cells.reserve(sims.size());
        for (std::size_t i = 0; i < sims.size(); ++i) {
            result.cells.push_back(to_cell(topologies[i], sims[i]));
        }
        return result;
    }

    // Parallel: one single-topology batched pass per worker task;
    // filled by index so the cell order matches the serial path.
    ThreadPool pool(std::min<std::size_t>(threads, topologies.size()));
    std::vector<std::future<SimResult>> futures;
    futures.reserve(topologies.size());
    for (const cache::TierTopology &topology : topologies) {
        futures.push_back(pool.submit([&runner, &result, &topology]() {
            return runner
                .runTopologyBatch(result.capacityBytes, {topology})
                .front();
        }));
    }
    result.cells.reserve(topologies.size());
    for (std::size_t i = 0; i < topologies.size(); ++i) {
        result.cells.push_back(to_cell(topologies[i],
                                       futures[i].get()));
    }
    return result;
}

TopologySweepResult
runTopologySweep(const workload::BenchmarkProfile &profile,
                 const std::vector<cache::TierTopology> &topologies,
                 std::size_t threads)
{
    ExperimentRunner runner(profile);
    return runTopologySweep(runner, topologies, threads);
}

} // namespace gencache::sim
