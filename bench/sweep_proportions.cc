/**
 * @file
 * Reproduces the §6.1 design-space sweep: generational cache
 * proportions crossed with promotion thresholds, on a representative
 * subset of benchmarks.
 *
 * Paper reference points: no universally best unbalanced
 * nursery/persistent split; an "undeniable link between the size of
 * the probation cache and the promotion threshold" — small probation
 * caches require low thresholds or long-lived traces are evicted
 * before qualifying.
 *
 * Doubles as the parallel-engine acceptance driver: every sweep runs
 * twice, serial (1 thread) and parallel (GENCACHE_THREADS / hardware
 * concurrency), the cells are checked for exact equality, and the
 * wall-clock numbers land in BENCH_sweep.json.
 */

#include <cstdio>

#include "bench_util.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "support/format.h"
#include "support/thread_pool.h"

namespace {

using namespace gencache;

const char *const kSubset[] = {"gzip", "vpr", "gcc", "crafty", "eon",
                               "art", "applu", "word", "solitaire"};

/** Exact per-cell equality: the parallel fan-out must not change a
 *  single miss rate or promotion count. */
bool
cellsIdentical(const sim::SweepResult &a, const sim::SweepResult &b)
{
    if (a.capacityBytes != b.capacityBytes ||
        a.unifiedMissRate != b.unifiedMissRate ||
        a.cells.size() != b.cells.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const sim::SweepCell &x = a.cells[i];
        const sim::SweepCell &y = b.cells[i];
        if (x.missRate != y.missRate ||
            x.promotions != y.promotions ||
            x.missRateReductionPct != y.missRateReductionPct ||
            x.threshold != y.threshold) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    using namespace gencache;

    std::size_t threads = ThreadPool::defaultThreadCount();
    bench::banner(format("Section 6.1 sweep: proportions x thresholds "
                         "(miss rate reduction vs unified; serial vs "
                         "{} threads)", threads));

    std::vector<sim::SweepPoint> points = sim::defaultSweepPoints();
    std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();

    bench::JsonArray benchmarks;
    double total_serial = 0.0;
    double total_parallel = 0.0;
    bool all_identical = true;

    const double factor = bench::scaleFactor();
    for (const char *name : kSubset) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name), factor);

        bench::WallTimer serial_timer;
        sim::SweepResult serial =
            sim::runSweep(profile, points, thresholds, 1);
        double serial_sec = serial_timer.seconds();

        bench::WallTimer parallel_timer;
        sim::SweepResult sweep =
            sim::runSweep(profile, points, thresholds, threads);
        double parallel_sec = parallel_timer.seconds();

        bool identical = cellsIdentical(serial, sweep);
        all_identical = all_identical && identical;
        total_serial += serial_sec;
        total_parallel += parallel_sec;

        std::printf("\n--- %s (unified miss rate %s, budget %s) ---\n",
                    name, percent(sweep.unifiedMissRate, 2).c_str(),
                    humanBytes(sweep.capacityBytes).c_str());

        std::vector<std::string> headers = {"layout"};
        for (std::uint32_t threshold : thresholds) {
            headers.push_back(format("thr {}", threshold));
        }
        TextTable table(headers);
        for (std::size_t p = 0; p < points.size(); ++p) {
            std::vector<std::string> row = {points[p].label()};
            for (std::size_t t = 0; t < thresholds.size(); ++t) {
                const sim::SweepCell &cell =
                    sweep.at(p, t, thresholds.size());
                row.push_back(fixed(cell.missRateReductionPct, 1) +
                              "%");
            }
            table.addRow(row);
        }
        std::printf("%s", table.toString().c_str());

        const sim::SweepCell &best = sweep.best();
        std::printf("best: %s thr %u (%.1f%% miss rate reduction)\n",
                    best.point.label().c_str(), best.threshold,
                    best.missRateReductionPct);
        std::printf("serial %.2fs, parallel %.2fs (%.2fx), cells %s\n",
                    serial_sec, parallel_sec,
                    parallel_sec > 0.0 ? serial_sec / parallel_sec
                                       : 0.0,
                    identical ? "identical" : "MISMATCH");

        bench::JsonObject entry;
        entry.put("name", name)
            .put("capacity_bytes", sweep.capacityBytes)
            .put("cells", static_cast<std::uint64_t>(
                              sweep.cells.size()))
            .put("unified_miss_rate", sweep.unifiedMissRate)
            .put("serial_sec", serial_sec)
            .put("parallel_sec", parallel_sec)
            .put("speedup", parallel_sec > 0.0
                                ? serial_sec / parallel_sec
                                : 0.0)
            .put("cells_identical", identical)
            .put("best_layout",
                 format("{} thr {}", best.point.label(),
                        best.threshold))
            .put("best_reduction_pct", best.missRateReductionPct);
        benchmarks.push(entry);
    }

    std::printf("\ntotal: serial %.2fs, parallel %.2fs (%.2fx on %zu "
                "threads), all cells %s\n",
                total_serial, total_parallel,
                total_parallel > 0.0 ? total_serial / total_parallel
                                     : 0.0,
                threads, all_identical ? "identical" : "MISMATCH");

    bench::JsonObject artifact;
    artifact.put("bench", "sweep_proportions")
        .put("threads", static_cast<std::uint64_t>(threads))
        .put("scale", factor)
        .putRaw("benchmarks", benchmarks.toString())
        .put("total_serial_sec", total_serial)
        .put("total_parallel_sec", total_parallel)
        .put("speedup", total_parallel > 0.0
                            ? total_serial / total_parallel
                            : 0.0)
        .put("all_cells_identical", all_identical);
    bench::writeJsonArtifact("BENCH_sweep.json", artifact);

    std::printf("\n(paper: small probation caches need low promotion "
                "thresholds; 45-10-45 thr 1 best overall)\n");
    return all_identical ? 0 : 1;
}
