/**
 * @file
 * Policy explorer: a small CLI to run any benchmark profile against
 * any cache configuration.
 *
 * Usage:
 *   policy_explorer [benchmark] [pressure] [nursery%] [probation%]
 *                   [threshold]
 *
 *   benchmark   profile name (default "gzip"; see workload/profile.h)
 *   pressure    managed-cache fraction of maxCache (default 0.5)
 *   nursery%    nursery share of the budget (default 45)
 *   probation%  probation share of the budget (default 10)
 *   threshold   probation promotion threshold (default 1)
 *
 * Prints the unified baseline and the requested generational layout
 * side by side, plus the per-generation flow statistics. The managed
 * budget is sim::managedCapacityBytes of the unbounded peak, and the
 * layout replays once, as a one-lane BatchedReplay (the blocked kernel
 * behind runGenerationalBatch()) whose manager is kept for the flows.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "codecache/generational_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"
#include "workload/profile.h"

int
main(int argc, char **argv)
{
    using namespace gencache;

    std::string benchmark = argc > 1 ? argv[1] : "gzip";
    double pressure = argc > 2 ? std::atof(argv[2]) : 0.5;
    double nursery_pct = argc > 3 ? std::atof(argv[3]) : 45.0;
    double probation_pct = argc > 4 ? std::atof(argv[4]) : 10.0;
    unsigned threshold =
        argc > 5 ? static_cast<unsigned>(std::atoi(argv[5])) : 1;

    workload::BenchmarkProfile profile =
        workload::findProfile(benchmark);
    // Keep the example responsive on the big interactive profiles.
    if (profile.finalCacheKb > 4096.0) {
        std::printf("(scaling '%s' down for interactive use)\n",
                    benchmark.c_str());
        profile.finalCacheKb = 4096.0;
        profile.durationSec = std::min(profile.durationSec, 30.0);
    }

    sim::ExperimentRunner runner(profile);
    sim::SimResult unbounded = runner.runUnbounded();
    std::uint64_t capacity =
        sim::managedCapacityBytes(unbounded.peakBytes, pressure);

    std::printf("benchmark '%s': maxCache %s, managed budget %s "
                "(pressure %.2f)\n",
                benchmark.c_str(),
                humanBytes(unbounded.peakBytes).c_str(),
                humanBytes(capacity).c_str(), pressure);

    sim::SimResult unified = runner.runUnified(capacity);

    sim::GenerationalLayout layout;
    layout.label = format("{}-{}-{} thr {}",
                          static_cast<int>(nursery_pct),
                          static_cast<int>(probation_pct),
                          static_cast<int>(100.0 - nursery_pct -
                                           probation_pct),
                          threshold);
    layout.nurseryFrac = nursery_pct / 100.0;
    layout.probationFrac = probation_pct / 100.0;
    layout.promotionThreshold = threshold;
    cache::GenerationalCacheManager manager(
        layout.toConfig(capacity));
    sim::BatchedReplay replay(runner.compiled());
    replay.setCostTables(&runner.costTables());
    replay.addLane(manager);
    sim::SimResult generational = replay.run().front();

    TextTable table({"metric", "unified", layout.label});
    auto row = [&](const char *name, std::uint64_t a,
                   std::uint64_t b) {
        table.addRow({name,
                      withCommas(static_cast<std::int64_t>(a)),
                      withCommas(static_cast<std::int64_t>(b))});
    };
    row("lookups", unified.lookups, generational.lookups);
    row("misses", unified.misses, generational.misses);
    table.addRow({"miss rate", percent(unified.missRate(), 2),
                  percent(generational.missRate(), 2)});
    row("evict instr", unified.overhead.evictions,
        generational.overhead.evictions);
    row("promote instr", unified.overhead.promotions,
        generational.overhead.promotions);
    row("total overhead", unified.overhead.total(),
        generational.overhead.total());
    double ratio = unified.overhead.total() == 0
                       ? 100.0
                       : 100.0 *
                             static_cast<double>(
                                 generational.overhead.total()) /
                             static_cast<double>(
                                 unified.overhead.total());
    table.addRow({"overhead ratio", "100.0%", fixed(ratio, 1) + "%"});
    std::printf("\n%s", table.toString().c_str());

    double reduction =
        unified.missRate() > 0.0
            ? (1.0 - generational.missRate() / unified.missRate()) *
                  100.0
            : 0.0;
    std::printf("\nmiss rate reduction vs unified: %.1f%%\n",
                reduction);

    // Per-generation flow statistics of the replayed manager.
    std::printf("\nper-generation flows:\n");
    std::printf("  %-10s %10s %12s %12s %10s\n", "cache", "hits",
                "promote-in", "promote-out", "deleted");
    for (cache::Generation gen :
         {cache::Generation::Nursery, cache::Generation::Probation,
          cache::Generation::Persistent}) {
        const cache::GenerationStats &gs =
            manager.generationStats(gen);
        std::printf("  %-10s %10llu %12llu %12llu %10llu\n",
                    cache::generationName(gen),
                    static_cast<unsigned long long>(gs.hits),
                    static_cast<unsigned long long>(gs.promotionsIn),
                    static_cast<unsigned long long>(gs.promotionsOut),
                    static_cast<unsigned long long>(gs.deletions));
    }
    std::printf("  probation rejections: %llu, placement failures: "
                "%llu\n",
                static_cast<unsigned long long>(
                    manager.stats().probationRejections),
                static_cast<unsigned long long>(
                    manager.stats().placementFailures));
    return 0;
}
