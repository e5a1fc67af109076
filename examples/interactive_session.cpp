/**
 * @file
 * Interactive-application scenario: simulate a Microsoft-Word-like
 * session (the paper's motivating workload) and compare a unified
 * cache against the generational design under the same byte budget.
 *
 * The workload model has the features §3 identifies: a large trace
 * volume, a high insertion rate, transient DLLs whose unloading
 * forces deletions, and a U-shaped trace lifetime distribution.
 */

#include <cstdio>

#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"
#include "tracelog/lifetime.h"
#include "workload/generator.h"
#include "workload/profile.h"

int
main(int argc, char **argv)
{
    using namespace gencache;

    // A scaled-down "word" session (pass --full for paper scale;
    // the default keeps the example snappy).
    workload::BenchmarkProfile profile = workload::findProfile("word");
    bool full = argc > 1 && std::string(argv[1]) == "--full";
    if (!full) {
        profile.durationSec = 10.0;
        profile.finalCacheKb = 1024.0;
    }

    std::printf("simulating '%s' (%s): %.0f seconds of interaction\n",
                profile.name.c_str(), profile.description.c_str(),
                profile.durationSec);

    sim::ExperimentRunner runner(profile);
    const tracelog::CompiledLog &log = runner.compiled();
    std::printf("log: %llu events, %llu traces, %s of trace bytes\n",
                static_cast<unsigned long long>(log.size()),
                static_cast<unsigned long long>(
                    log.createdTraceCount()),
                humanBytes(log.createdTraceBytes()).c_str());

    // Trace lifetimes (the motivation for generations, Fig 6).
    tracelog::LifetimeAnalyzer analyzer(log);
    Histogram lifetimes = analyzer.lifetimeHistogram();
    std::printf("\ntrace lifetimes (fraction of traces):\n");
    std::vector<std::string> labels = lifetimeBucketLabels();
    for (std::size_t bin = 0; bin < lifetimes.binCount(); ++bin) {
        std::printf("  %-7s %s\n", labels[bin].c_str(),
                    percent(lifetimes.binFraction(bin)).c_str());
    }

    // The §6 comparison.
    sim::BenchmarkComparison comparison =
        runner.compare(sim::paperLayouts());
    std::printf("\nmax cache (unbounded): %s; managed budget: %s\n",
                humanBytes(comparison.maxCacheBytes).c_str(),
                humanBytes(comparison.capacityBytes).c_str());

    TextTable table({"configuration", "miss rate", "misses",
                     "overhead (instr)", "vs unified"});
    table.addRow({comparison.unified.manager,
                  percent(comparison.unified.missRate(), 2),
                  withCommas(static_cast<std::int64_t>(
                      comparison.unified.misses)),
                  withCommas(static_cast<std::int64_t>(
                      comparison.unified.overhead.total())),
                  "100.0%"});
    for (std::size_t i = 0; i < comparison.generational.size(); ++i) {
        const sim::SimResult &result = comparison.generational[i];
        table.addRow({result.manager, percent(result.missRate(), 2),
                      withCommas(static_cast<std::int64_t>(
                          result.misses)),
                      withCommas(static_cast<std::int64_t>(
                          result.overhead.total())),
                      fixed(comparison.overheadRatioPct(i), 1) + "%"});
    }
    std::printf("\n%s", table.toString().c_str());

    std::printf("\nprogram-forced evictions (unloaded DLLs): %s of "
                "trace bytes\n",
                percent(static_cast<double>(
                            comparison.unbounded.managerStats
                                .unmapDeletedBytes) /
                        static_cast<double>(
                            comparison.unbounded.createdBytes))
                    .c_str());
    return 0;
}
