#include "sim/experiment.h"

#include <algorithm>
#include <cmath>

#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "support/format.h"
#include "support/logging.h"
#include "workload/generator.h"

namespace gencache::sim {

cache::GenerationalConfig
GenerationalLayout::toConfig(std::uint64_t total_bytes) const
{
    return cache::GenerationalConfig::fromProportions(
        total_bytes, nurseryFrac, probationFrac, promotionThreshold,
        eagerPromotion);
}

std::vector<GenerationalLayout>
paperLayouts()
{
    return {
        {"33-33-33 thr 10", 1.0 / 3.0, 1.0 / 3.0, 10, false},
        {"40-20-40 thr 5", 0.40, 0.20, 5, false},
        {"45-10-45 thr 1", 0.45, 0.10, 1, false},
    };
}

double
BenchmarkComparison::missRateReductionPct(std::size_t i) const
{
    double base = unified.missRate();
    if (base <= 0.0) {
        return 0.0;
    }
    return (1.0 - generational.at(i).missRate() / base) * 100.0;
}

std::int64_t
BenchmarkComparison::missesEliminated(std::size_t i) const
{
    return static_cast<std::int64_t>(unified.misses) -
           static_cast<std::int64_t>(generational.at(i).misses);
}

double
BenchmarkComparison::overheadRatioPct(std::size_t i) const
{
    double base = static_cast<double>(unified.overhead.total());
    if (base <= 0.0) {
        return 100.0;
    }
    return static_cast<double>(generational.at(i).overhead.total()) /
           base * 100.0;
}

std::uint64_t
managedCapacityBytes(std::uint64_t peak_bytes, double factor)
{
    return std::max<std::uint64_t>(
        4096, static_cast<std::uint64_t>(std::llround(
                  static_cast<double>(peak_bytes) * factor)));
}

namespace {

/** Replay @p runner's compiled log against @p pipeline alone: a
 *  one-lane blocked pass sharing the runner's cost tables. */
SimResult
replayOneLane(const ExperimentRunner &runner,
              cache::TierPipeline &pipeline)
{
    BatchedReplay replay(runner.compiled());
    replay.setCostTables(&runner.costTables());
    replay.addLane(pipeline);
    return replay.run().front();
}

} // namespace

ExperimentRunner::ExperimentRunner(workload::BenchmarkProfile profile)
    : profile_(std::move(profile)),
      log_(workload::generateWorkload(profile_))
{
}

const tracelog::CompiledLog &
ExperimentRunner::compiled() const
{
    std::call_once(compiledOnce_, [this]() {
        compiled_ = std::make_unique<tracelog::CompiledLog>(
            tracelog::CompiledLog::compile(log_));
    });
    return *compiled_;
}

const CostTables &
ExperimentRunner::costTables() const
{
    std::call_once(costTablesOnce_, [this]() {
        costTables_ = std::make_unique<CostTables>(
            CostTables::build(compiled(), cost::CostModel{}));
    });
    return *costTables_;
}

SimResult
ExperimentRunner::runUnbounded() const
{
    {
        MutexLock lock(memoMutex_);
        if (unbounded_.has_value()) {
            return *unbounded_;
        }
    }
    cache::UnifiedCacheManager manager(0);
    SimResult result = replayOneLane(*this, manager);
    // The list cache tracks its own peak; prefer it (it includes the
    // occupancy between replay samples).
    result.peakBytes = std::max(result.peakBytes, manager.peakBytes());
    MutexLock lock(memoMutex_);
    if (!unbounded_.has_value()) {
        unbounded_ = result;
    }
    return *unbounded_;
}

SimResult
ExperimentRunner::runUnified(std::uint64_t capacity_bytes) const
{
    if (capacity_bytes == 0) {
        fatal("unified baseline requires a positive capacity");
    }
    {
        MutexLock lock(memoMutex_);
        auto it = unifiedByCapacity_.find(capacity_bytes);
        if (it != unifiedByCapacity_.end()) {
            return it->second;
        }
    }
    cache::UnifiedCacheManager manager(
        capacity_bytes, cache::LocalPolicy::PseudoCircular);
    SimResult result = replayOneLane(*this, manager);
    MutexLock lock(memoMutex_);
    return unifiedByCapacity_.emplace(capacity_bytes, result)
        .first->second;
}

SimResult
ExperimentRunner::runGenerational(std::uint64_t total_bytes,
                                  const GenerationalLayout &layout) const
{
    cache::GenerationalCacheManager manager(
        layout.toConfig(total_bytes));
    CacheSimulator simulator(manager);
    SimResult result = simulator.run(log_);
    result.manager = layout.label;
    return result;
}

std::vector<SimResult>
ExperimentRunner::runGenerationalBatch(
    std::uint64_t total_bytes,
    const std::vector<GenerationalLayout> &layouts) const
{
    std::vector<std::unique_ptr<cache::GenerationalCacheManager>>
        managers;
    managers.reserve(layouts.size());
    BatchedReplay replay(compiled());
    replay.setCostTables(&costTables());
    for (const GenerationalLayout &layout : layouts) {
        managers.push_back(
            std::make_unique<cache::GenerationalCacheManager>(
                layout.toConfig(total_bytes)));
        replay.addLane(*managers.back());
    }
    std::vector<SimResult> results = replay.run();
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].manager = layouts[i].label;
    }
    return results;
}

SimResult
ExperimentRunner::runTopology(std::uint64_t total_bytes,
                              const cache::TierTopology &topology) const
{
    std::unique_ptr<cache::TierPipeline> manager =
        topology.build(total_bytes);
    CacheSimulator simulator(*manager);
    SimResult result = simulator.run(log_);
    result.manager = topology.name;
    return result;
}

std::vector<SimResult>
ExperimentRunner::runTopologyBatch(
    std::uint64_t total_bytes,
    const std::vector<cache::TierTopology> &topologies) const
{
    std::vector<std::unique_ptr<cache::TierPipeline>> managers;
    managers.reserve(topologies.size());
    BatchedReplay replay(compiled());
    replay.setCostTables(&costTables());
    for (const cache::TierTopology &topology : topologies) {
        managers.push_back(topology.build(total_bytes));
        replay.addLane(*managers.back());
    }
    std::vector<SimResult> results = replay.run();
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].manager = topologies[i].name;
    }
    return results;
}

BenchmarkComparison
ExperimentRunner::compare(const std::vector<GenerationalLayout> &layouts,
                          ThreadPool * /*pool*/) const
{
    BenchmarkComparison comparison;
    comparison.benchmark = profile_.name;
    comparison.suite = profile_.suite;

    comparison.unbounded = runUnbounded();
    comparison.maxCacheBytes = comparison.unbounded.peakBytes;
    comparison.capacityBytes =
        managedCapacityBytes(comparison.maxCacheBytes);
    comparison.unified = runUnified(comparison.capacityBytes);
    comparison.generational =
        runGenerationalBatch(comparison.capacityBytes, layouts);
    return comparison;
}

} // namespace gencache::sim
