/**
 * @file
 * Ablation: cache pressure. The paper fixes the managed budget at
 * maxCache * 0.5 (§6); this bench sweeps the pressure factor to show
 * how the generational advantage appears as soon as the cache stops
 * fitting the workload and grows as pressure rises — and that art,
 * whose working set exceeds any fraction, stays pathological. Each
 * column sizes the cache with sim::managedCapacityBytes, so the 0.50x
 * column is exactly the capacity compare() and fig9 use, and replays
 * the layout through runGenerationalBatch().
 */

#include <cstdio>

#include "bench_util.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"

namespace {

using namespace gencache;

const char *const kSubset[] = {"gzip", "gcc", "crafty", "art", "word",
                               "solitaire"};
const double kPressures[] = {1.0, 0.75, 0.5, 0.25};

} // namespace

int
main()
{
    using namespace gencache;

    bench::banner("Ablation: managed-cache pressure "
                  "(miss-rate reduction of 45-10-45 thr 1)");

    TextTable table({"benchmark", "1.00x", "0.75x", "0.50x",
                     "0.25x"});
    sim::GenerationalLayout layout = sim::paperLayouts().back();

    for (const char *name : kSubset) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name));
        sim::ExperimentRunner runner(profile);
        sim::SimResult unbounded = runner.runUnbounded();

        std::vector<std::string> row = {profile.name};
        for (double pressure : kPressures) {
            std::uint64_t capacity =
                sim::managedCapacityBytes(unbounded.peakBytes, pressure);
            sim::SimResult unified = runner.runUnified(capacity);
            sim::SimResult generational =
                runner.runGenerationalBatch(capacity, {layout}).front();
            double reduction =
                unified.missRate() > 0.0
                    ? (1.0 - generational.missRate() /
                                 unified.missRate()) *
                          100.0
                    : 0.0;
            if (unified.misses == 0) {
                row.push_back("-");
            } else {
                row.push_back(fixed(reduction, 1) + "%");
            }
        }
        table.addRow(row);
    }
    std::printf("%s", table.toString().c_str());
    std::printf("\n('-' = the unified cache of that size never "
                "misses, so management is moot; the paper evaluates "
                "at 0.50x)\n");
    return 0;
}
