/**
 * @file
 * Ablation: local replacement policies inside a unified cache —
 * pseudo-circular (the paper's §4.3 choice) vs. idealized FIFO, LRU,
 * and Dynamo-style preemptive flush.
 *
 * Context: the paper's prior work [12] found FIFO-style circular
 * management superior to LRU once overhead and fragmentation are
 * accounted for, and preemptive flushing discards useful long-lived
 * traces. This bench reports both miss rates and the Table 2
 * instruction overheads so the trade-off is visible. The four
 * policies replay as the lanes of one BatchedReplay pass at the
 * managed capacity that compare() and fig9 use.
 */

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "support/format.h"

namespace {

using namespace gencache;

const char *const kSubset[] = {"gzip", "gcc", "crafty", "vortex",
                               "art", "word", "excel", "solitaire"};

const cache::LocalPolicy kPolicies[] = {
    cache::LocalPolicy::PseudoCircular,
    cache::LocalPolicy::Fifo,
    cache::LocalPolicy::Lru,
    cache::LocalPolicy::PreemptiveFlush,
};

} // namespace

int
main()
{
    using namespace gencache;

    bench::banner("Ablation: local policy in a unified cache "
                  "(miss rate / overhead instr)");

    TextTable table({"benchmark", "pseudo-circular", "fifo", "lru",
                     "preemptive-flush"});
    SummaryStats totals[4];

    for (const char *name : kSubset) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name));
        sim::ExperimentRunner runner(profile);
        sim::SimResult unbounded = runner.runUnbounded();
        std::uint64_t capacity =
            sim::managedCapacityBytes(unbounded.peakBytes);

        std::vector<std::unique_ptr<cache::UnifiedCacheManager>>
            managers;
        sim::BatchedReplay replay(runner.compiled());
        replay.setCostTables(&runner.costTables());
        for (cache::LocalPolicy policy : kPolicies) {
            managers.push_back(
                std::make_unique<cache::UnifiedCacheManager>(capacity,
                                                             policy));
            replay.addLane(*managers.back());
        }
        std::vector<sim::SimResult> results = replay.run();

        std::vector<std::string> row = {profile.name};
        for (std::size_t column = 0; column < results.size();
             ++column) {
            const sim::SimResult &result = results[column];
            totals[column].add(
                static_cast<double>(result.overhead.total()));
            row.push_back(format("{} / {}",
                                 percent(result.missRate(), 2),
                                 withCommas(static_cast<std::int64_t>(
                                     result.overhead.total()))));
        }
        table.addRow(row);
    }
    std::printf("%s", table.toString().c_str());

    std::printf("\nmean overhead (instructions):\n");
    const char *labels[] = {"pseudo-circular", "fifo", "lru",
                            "preemptive-flush"};
    for (int i = 0; i < 4; ++i) {
        std::printf("  %-17s %s\n", labels[i],
                    withCommas(static_cast<std::int64_t>(
                        totals[i].mean())).c_str());
    }
    std::printf("\n(prior-work claim: circular/FIFO competitive with "
                "LRU at far lower bookkeeping cost; flushing is the "
                "worst of both)\n");
    return 0;
}
