/**
 * @file
 * Ablation: eager vs. eviction-time promotion (§5.3).
 *
 * The paper notes that with a single-hit threshold the access counter
 * can be eliminated entirely by letting each probation hit trigger
 * the upgrade immediately. This bench compares the two policies at
 * identical layouts: eager promotion moves hot traces out of
 * probation sooner (freeing probation space) at the cost of
 * promoting the occasional one-hit wonder. Both policies replay as
 * the two lanes of one runGenerationalBatch() pass at the managed
 * capacity that compare() and fig9 use.
 */

#include <cstdio>

#include "bench_util.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"

namespace {

using namespace gencache;

const char *const kSubset[] = {"gzip", "gcc", "crafty", "vortex",
                               "word", "excel", "solitaire"};

} // namespace

int
main()
{
    using namespace gencache;

    bench::banner("Ablation: eviction-time vs eager promotion "
                  "(45-10-45, threshold 1)");

    TextTable table({"benchmark", "unified miss", "eviction-time",
                     "eager", "eager promos", "lazy promos"});

    const double factor = bench::scaleFactor();
    for (const char *name : kSubset) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name), factor);
        sim::ExperimentRunner runner(profile);
        sim::SimResult unbounded = runner.runUnbounded();
        std::uint64_t capacity =
            sim::managedCapacityBytes(unbounded.peakBytes);
        sim::SimResult unified = runner.runUnified(capacity);

        sim::GenerationalLayout lazy;
        lazy.label = "lazy";
        lazy.nurseryFrac = 0.45;
        lazy.probationFrac = 0.10;
        lazy.promotionThreshold = 1;
        lazy.eagerPromotion = false;

        sim::GenerationalLayout eager = lazy;
        eager.label = "eager";
        eager.eagerPromotion = true;

        std::vector<sim::SimResult> results =
            runner.runGenerationalBatch(capacity, {lazy, eager});
        const sim::SimResult &lazy_result = results[0];
        const sim::SimResult &eager_result = results[1];

        auto reduction = [&](const sim::SimResult &result) {
            return unified.missRate() > 0.0
                       ? (1.0 -
                          result.missRate() / unified.missRate()) *
                             100.0
                       : 0.0;
        };
        table.addRow({profile.name, percent(unified.missRate(), 2),
                      fixed(reduction(lazy_result), 1) + "%",
                      fixed(reduction(eager_result), 1) + "%",
                      withCommas(static_cast<std::int64_t>(
                          eager_result.managerStats.promotions)),
                      withCommas(static_cast<std::int64_t>(
                          lazy_result.managerStats.promotions))});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("\n(§5.3: a single probation hit triggering the "
                "upgrade removes the need for access counters "
                "entirely)\n");
    return 0;
}
