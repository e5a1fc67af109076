/**
 * @file
 * Fragmentation study (paper §4.2–4.3): the pseudo-circular policy is
 * designed to avoid fragmentation from ordinary replacement, leaving
 * only the holes that program-forced evictions (unmapped DLLs) and
 * pinned-trace skips make unavoidable.
 *
 * This bench replays interactive workloads against an address-accurate
 * pseudo-circular unified cache and reports the end-state free-space
 * fragmentation, wrap waste, and pinned-skip counts, plus a synthetic
 * stress case with heavy pinning. Each workload replays through a
 * one-lane BatchedReplay at the managed capacity that compare() and
 * fig9 use.
 */

#include <cstdio>

#include "bench_util.h"
#include "codecache/pseudo_circular_cache.h"
#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "support/format.h"
#include "support/rng.h"

namespace {

using namespace gencache;

void
workloadStudy()
{
    bench::banner("Fragmentation after replay "
                  "(pseudo-circular unified cache, 0.5x budget)");
    TextTable table({"benchmark", "free", "extents", "largest",
                     "frag index", "wrap waste", "pinned skips"});

    const char *const names[] = {"word", "iexplore", "excel",
                                 "pinball", "solitaire", "gcc",
                                 "crafty"};
    for (const char *name : names) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name));
        // Exaggerate pinning a little so the pinned-skip machinery is
        // visible in the report.
        profile.pinFrac = 0.01;
        sim::ExperimentRunner runner(profile);
        sim::SimResult unbounded = runner.runUnbounded();
        std::uint64_t capacity =
            sim::managedCapacityBytes(unbounded.peakBytes);

        cache::UnifiedCacheManager manager(capacity);
        sim::BatchedReplay replay(runner.compiled());
        replay.setCostTables(&runner.costTables());
        replay.addLane(manager);
        replay.run();

        const auto &local = dynamic_cast<const
            cache::PseudoCircularCache &>(manager.local());
        cache::FragmentationInfo info =
            local.region().fragmentation();
        table.addRow({name, humanBytes(info.freeBytes),
                      withCommas(static_cast<std::int64_t>(
                          info.freeExtents)),
                      humanBytes(info.largestFreeExtent),
                      fixed(info.index(), 3),
                      humanBytes(local.region().wrapWasteBytes()),
                      withCommas(static_cast<std::int64_t>(
                          local.region().pinnedSkips()))});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("(frag index = 1 - largest/total free; 0 means all "
                "free space is one hole)\n");
}

void
pinStress()
{
    bench::banner("Synthetic pin stress (64 KB region)");
    TextTable table({"pin fraction", "placement failures",
                     "pinned skips", "wrap waste", "frag index"});

    for (double pin_frac : {0.0, 0.05, 0.20, 0.50}) {
        cache::PseudoCircularCache cache(64 * kKiB);
        Rng rng(42);
        std::vector<cache::Fragment> evicted;
        std::vector<cache::TraceId> pinned;
        for (cache::TraceId id = 1; id <= 20'000; ++id) {
            cache::Fragment frag;
            frag.id = id;
            frag.sizeBytes = static_cast<std::uint32_t>(
                rng.uniformInt(64, 1024));
            evicted.clear();
            if (cache.insert(frag, evicted) &&
                rng.bernoulli(pin_frac)) {
                cache.setPinned(id, true);
                pinned.push_back(id);
                // Cap the pinned population at 1/4 of the region so
                // progress stays possible.
                if (pinned.size() > 16) {
                    cache.setPinned(pinned.front(), false);
                    pinned.erase(pinned.begin());
                }
            }
        }
        cache::FragmentationInfo info = cache.region().fragmentation();
        table.addRow({fixed(pin_frac, 2),
                      withCommas(static_cast<std::int64_t>(
                          cache.stats().placementFailures)),
                      withCommas(static_cast<std::int64_t>(
                          cache.region().pinnedSkips())),
                      humanBytes(cache.region().wrapWasteBytes()),
                      fixed(info.index(), 3)});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("(pinned fragments force eviction-pointer resets; "
                "the policy keeps placing without defragmentation)\n");
}

} // namespace

int
main()
{
    workloadStudy();
    pinStress();
    return 0;
}
