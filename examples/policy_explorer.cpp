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
 * Each number is parsed whole and must be finite. The pressure must be
 * > 0, and the budget it gives must stay below 2^63 bytes; the
 * threshold is a whole unsigned decimal below 2^32, with no sign. A
 * malformed number or a sixth argument exits 2 with the usage text.
 * Range errors the library reports itself (nursery% + probation% of
 * 100 or more, a share of 0 or less, threshold 0) exit 1.
 *
 * Prints the unified baseline and the requested generational layout
 * side by side, plus the per-generation flow statistics. The managed
 * budget is sim::managedCapacityBytes of the unbounded peak, and the
 * layout replays once, as a one-lane BatchedReplay (the blocked kernel
 * behind runGenerationalBatch()) whose manager is kept for the flows.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "codecache/generational_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"
#include "support/rng.h"
#include "workload/profile.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: policy_explorer [benchmark] [pressure] "
                 "[nursery%%] [probation%%] [threshold]\n"
                 "  pressure, nursery%% and probation%% are finite "
                 "numbers, pressure > 0\n"
                 "  threshold is a whole decimal below 2^32\n");
    return 2;
}

/** Report @p text as a malformed @p what; @return the usage exit. */
int
badArgument(const char *what, const char *text)
{
    std::fprintf(stderr, "policy_explorer: %s, got '%s'\n", what, text);
    return usage();
}

/** Parse all of @p text as a finite number. */
bool
parseFinite(const char *text, double &value)
{
    char *end = nullptr;
    value = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(value);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gencache;

    if (argc > 6) {
        return badArgument("at most five arguments", argv[6]);
    }
    std::string benchmark = argc > 1 ? argv[1] : "gzip";
    double pressure = 0.5;
    if (argc > 2 &&
        (!parseFinite(argv[2], pressure) || !(pressure > 0.0))) {
        return badArgument("pressure wants a finite number > 0",
                           argv[2]);
    }
    double nursery_pct = 45.0;
    if (argc > 3 && !parseFinite(argv[3], nursery_pct)) {
        return badArgument("nursery% wants a finite number", argv[3]);
    }
    double probation_pct = 10.0;
    if (argc > 4 && !parseFinite(argv[4], probation_pct)) {
        return badArgument("probation% wants a finite number", argv[4]);
    }
    std::uint64_t threshold = 1;
    if (argc > 5 &&
        (!parseSeed(argv[5], threshold) ||
         threshold > std::numeric_limits<std::uint32_t>::max())) {
        return badArgument("threshold wants a whole decimal below 2^32",
                           argv[5]);
    }

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
    // managedCapacityBytes rounds through std::llround, whose result
    // is a signed 64-bit number.
    if (static_cast<double>(unbounded.peakBytes) * pressure >= 0x1p63) {
        return badArgument("pressure gives a budget past 2^63 bytes",
                           argv[2]);
    }
    std::uint64_t capacity =
        sim::managedCapacityBytes(unbounded.peakBytes, pressure);

    std::printf("benchmark '%s': maxCache %s, managed budget %s "
                "(pressure %.2f)\n",
                benchmark.c_str(),
                humanBytes(unbounded.peakBytes).c_str(),
                humanBytes(capacity).c_str(), pressure);

    sim::SimResult unified = runner.runUnified(capacity);

    sim::GenerationalLayout layout;
    layout.nurseryFrac = nursery_pct / 100.0;
    layout.probationFrac = probation_pct / 100.0;
    layout.promotionThreshold = static_cast<std::uint32_t>(threshold);
    // Built before the label, so the shares are validated before they
    // are cast to int.
    cache::GenerationalCacheManager manager(
        layout.toConfig(capacity));
    layout.label = format("{}-{}-{} thr {}",
                          static_cast<int>(nursery_pct),
                          static_cast<int>(probation_pct),
                          static_cast<int>(100.0 - nursery_pct -
                                           probation_pct),
                          threshold);
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
