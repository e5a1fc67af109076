/**
 * @file
 * Every result the repository reports — Table 1, Figures 1-4, 6 and
 * 9-11, Table 2, the §6.1 sweep, the §4.3, §6 and §5.3 ablations and
 * the §4.2-4.3 fragmentation study — as one function of the 38
 * benchmark profiles.
 *
 * Each profile is generated and run through the §6 methodology once,
 * as one task on a ThreadPool, largest profiles first. A profile that
 * a later text reads (the sweep's, or an ablation's) also runs that
 * text's replays in its task, on the same runner. The fragmentation
 * study pins more traces (pinFrac 0.01), so its profiles are other
 * logs, each one more task on the pool. A task returns only the small
 * record the texts read (ProfileRecord, FragmentationRecord); its
 * runner, log and compiled log are freed when it ends. The texts are
 * then rendered from the records, after every task has finished, so
 * they do not depend on the worker count.
 *
 * compare(paperLayouts()) serves five figures: its memoized unbounded
 * result gives Figures 1, 2 and 4, and its last lane, 45-10-45 thr 1,
 * Figures 10 and 11 (a one-lane compare() of that layout gives the
 * same lane). Its unified baseline is also the eager-promotion
 * ablation's. bench/paper_figures prints every text;
 * tests/test_paper_figures.cc pins each one by a committed digest.
 */

#ifndef GENCACHE_BENCH_PAPER_FIGURES_H
#define GENCACHE_BENCH_PAPER_FIGURES_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "codecache/pseudo_circular_cache.h"
#include "codecache/unified_cache.h"
#include "costmodel/cost_model.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/lifetime.h"
#include "workload/profile.h"

namespace gencache::bench {

/** One text: its name ("table1", "fig1", ...) and what it prints. */
struct FigureText
{
    std::string name;
    std::string text;
};

/** The profiles of each text that reads only some, in the order its
 *  rows print. */
inline constexpr std::array<std::string_view, 9> kSweepProfiles = {
    "gzip", "vpr", "gcc", "crafty", "eon", "art", "applu", "word",
    "solitaire"};
inline constexpr std::array<std::string_view, 8> kLocalPolicyProfiles = {
    "gzip", "gcc", "crafty", "vortex", "art", "word", "excel",
    "solitaire"};
inline constexpr std::array<std::string_view, 6> kPressureProfiles = {
    "gzip", "gcc", "crafty", "art", "word", "solitaire"};
inline constexpr std::array<std::string_view, 7> kEagerProfiles = {
    "gzip", "gcc", "crafty", "vortex", "word", "excel", "solitaire"};
inline constexpr std::array<std::string_view, 7>
    kFragmentationProfiles = {"word",      "iexplore", "excel", "pinball",
                              "solitaire", "gcc",      "crafty"};

/** The local policies of the unified-cache ablation, with their
 *  column labels. */
inline constexpr std::array<std::pair<cache::LocalPolicy, const char *>,
                            4>
    kLocalPolicies = {{
        {cache::LocalPolicy::PseudoCircular, "pseudo-circular"},
        {cache::LocalPolicy::Fifo, "fifo"},
        {cache::LocalPolicy::Lru, "lru"},
        {cache::LocalPolicy::PreemptiveFlush, "preemptive-flush"},
    }};

/** The pressure ablation's budgets, as fractions of maxCache. */
inline constexpr std::array<double, 4> kPressures = {1.0, 0.75, 0.5,
                                                     0.25};

/** The fragmentation study's pin fraction, ten times the profiles'
 *  default, so the pinned-skip machinery shows in its rows. */
inline constexpr double kFragmentationPinFrac = 0.01;

/** What one profile contributes to the texts. The optional parts are
 *  filled only for the profiles their texts read. */
struct ProfileRecord
{
    std::uint64_t footprintBytes = 0; ///< the log's static code (Fig 2)
    std::uint64_t createdBytes = 0;   ///< trace bytes created (Fig 3)
    TimeUs duration = 0;              ///< the log's duration (Fig 3)
    std::vector<double> lifetimeFractions; ///< Fig 6, one per bucket
    sim::BenchmarkComparison comparison;   ///< compare(paperLayouts())
    std::optional<sim::SweepResult> sweep; ///< §6.1, default grid
    /** kLocalPolicies as unified caches at the managed capacity. */
    std::vector<sim::SimResult> localPolicies;
    /** Per kPressures: the unified cache, then 45-10-45 thr 1. */
    std::vector<std::pair<sim::SimResult, sim::SimResult>> pressure;
    /** 45-10-45 thr 1 at the managed capacity: lazy, then eager. */
    std::vector<sim::SimResult> promotion;
};

/** One fragmentation-study row: the pseudo-circular unified cache's
 *  region after a replay at the managed capacity. */
struct FragmentationRecord
{
    std::string benchmark;
    cache::FragmentationInfo free;
    std::uint64_t wrapWasteBytes = 0;
    std::uint64_t pinnedSkips = 0;
};

/** The SPEC2000 records, then the interactive ones, each suite in
 *  profile order. */
using SuiteRecords = std::array<std::vector<ProfileRecord>, 2>;

/** @return whether @p names lists @p name. */
template <std::size_t N>
bool
listed(const std::array<std::string_view, N> &names,
       const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Miss rate reduction (%) of @p result against @p unified, as
 *  BenchmarkComparison::missRateReductionPct() computes it. */
inline double
reductionPct(const sim::SimResult &unified, const sim::SimResult &result)
{
    return unified.missRate() > 0.0
               ? (1.0 - result.missRate() / unified.missRate()) * 100.0
               : 0.0;
}

/** Replay @p runner's log through kLocalPolicies as the lanes of one
 *  blocked pass at @p capacity bytes. */
inline std::vector<sim::SimResult>
replayLocalPolicies(const sim::ExperimentRunner &runner,
                    std::uint64_t capacity)
{
    std::vector<std::unique_ptr<cache::UnifiedCacheManager>> managers;
    sim::BatchedReplay replay(runner.compiled());
    replay.setCostTables(&runner.costTables());
    for (const auto &[policy, label] : kLocalPolicies) {
        managers.push_back(
            std::make_unique<cache::UnifiedCacheManager>(capacity,
                                                         policy));
        replay.addLane(*managers.back());
    }
    return replay.run();
}

/** Generate @p profile's log, run compare(paperLayouts()) and the
 *  replays of every text that lists the profile, and keep only what
 *  the texts read. The AccessLog that Figures 2, 3 and 6 read is
 *  rebuilt after compare() and freed before the other replays, so it
 *  is not alive through the sweep (EXPERIMENTS.md, "Every reported
 *  number from one driver", measures the alternatives). */
inline ProfileRecord
measureProfile(const workload::BenchmarkProfile &profile)
{
    const sim::ExperimentRunner runner(profile);
    ProfileRecord record;
    record.comparison = runner.compare(sim::paperLayouts());
    const std::uint64_t capacity = record.comparison.capacityBytes;
    {
        const tracelog::AccessLog log = runner.compiled().toAccessLog();
        record.footprintBytes = log.footprintBytes();
        record.createdBytes = log.createdTraceBytes();
        record.duration = log.duration();
        const Histogram lifetimes =
            tracelog::LifetimeAnalyzer(log).lifetimeHistogram();
        for (std::size_t bin = 0; bin < lifetimes.binCount(); ++bin) {
            record.lifetimeFractions.push_back(
                lifetimes.binFraction(bin));
        }
    }
    if (listed(kSweepProfiles, profile.name)) {
        record.sweep =
            sim::runSweep(runner, sim::defaultSweepPoints(),
                          sim::defaultSweepThresholds());
    }
    if (listed(kLocalPolicyProfiles, profile.name)) {
        record.localPolicies = replayLocalPolicies(runner, capacity);
    }
    if (listed(kPressureProfiles, profile.name)) {
        const sim::GenerationalLayout layout = sim::paperLayouts().back();
        for (double pressure : kPressures) {
            const std::uint64_t budget = sim::managedCapacityBytes(
                record.comparison.maxCacheBytes, pressure);
            record.pressure.emplace_back(
                runner.runUnified(budget),
                runner.runGenerationalBatch(budget, {layout}).front());
        }
    }
    if (listed(kEagerProfiles, profile.name)) {
        sim::GenerationalLayout lazy;
        lazy.label = "lazy";
        lazy.nurseryFrac = 0.45;
        lazy.probationFrac = 0.10;
        lazy.promotionThreshold = 1;
        sim::GenerationalLayout eager = lazy;
        eager.label = "eager";
        eager.eagerPromotion = true;
        record.promotion =
            runner.runGenerationalBatch(capacity, {lazy, eager});
    }
    return record;
}

/** Generate @p profile's log and replay it through a pseudo-circular
 *  unified cache at the managed capacity, keeping the region's
 *  fragmentation. */
inline FragmentationRecord
measureFragmentation(const workload::BenchmarkProfile &profile)
{
    const sim::ExperimentRunner runner(profile);
    cache::UnifiedCacheManager manager(
        sim::managedCapacityBytes(runner.runUnbounded().peakBytes));
    sim::BatchedReplay replay(runner.compiled());
    replay.setCostTables(&runner.costTables());
    replay.addLane(manager);
    replay.run();
    const cache::CacheRegion &region =
        dynamic_cast<const cache::PseudoCircularCache &>(manager.local())
            .region();
    return {profile.name, region.fragmentation(),
            region.wrapWasteBytes(), region.pinnedSkips()};
}

/** Every record, each in its profiles' order. */
struct Measurements
{
    std::vector<ProfileRecord> profiles;
    std::vector<FragmentationRecord> fragmentation;
};

/** measureProfile() of each of @p profiles and measureFragmentation()
 *  of each of @p pinned, one task each on @p pool. The tasks are
 *  queued largest first, by unbounded size times mean executions per
 *  trace (a proxy for the event count), so the longest ones do not
 *  start last. */
inline Measurements
measureProfiles(const std::vector<workload::BenchmarkProfile> &profiles,
                const std::vector<workload::BenchmarkProfile> &pinned,
                ThreadPool &pool)
{
    auto profile_at = [&](std::size_t index)
        -> const workload::BenchmarkProfile & {
        return index < profiles.size() ? profiles[index]
                                       : pinned[index - profiles.size()];
    };
    auto work = [&](std::size_t index) {
        const workload::BenchmarkProfile &profile = profile_at(index);
        return profile.finalCacheKb * profile.execsPerTraceMean;
    };
    std::vector<std::size_t> order(profiles.size() + pinned.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return work(a) > work(b);
                     });
    std::vector<std::future<ProfileRecord>> records(profiles.size());
    std::vector<std::future<FragmentationRecord>> fragmentation(
        pinned.size());
    for (std::size_t index : order) {
        const workload::BenchmarkProfile &profile = profile_at(index);
        if (index < profiles.size()) {
            records[index] = pool.submit(
                [&profile] { return measureProfile(profile); });
        } else {
            fragmentation[index - profiles.size()] = pool.submit(
                [&profile] { return measureFragmentation(profile); });
        }
    }
    Measurements measured;
    for (std::future<ProfileRecord> &future : records) {
        measured.profiles.push_back(future.get());
    }
    for (std::future<FragmentationRecord> &future : fragmentation) {
        measured.fragmentation.push_back(future.get());
    }
    return measured;
}

/** Append what printf(@p spec, ...) would print to @p out. */
[[gnu::format(printf, 2, 3)]] inline void
appendf(std::string &out, const char *spec, ...)
{
    std::va_list args;
    va_start(args, spec);
    std::va_list measure;
    va_copy(measure, args);
    const int length = std::vsnprintf(nullptr, 0, spec, measure);
    va_end(measure);
    if (length > 0) {
        const std::size_t at = out.size();
        const auto room = static_cast<std::size_t>(length) + 1;
        out.resize(at + room);
        std::vsnprintf(out.data() + at, room, spec, args);
        out.resize(at + room - 1);
    }
    va_end(args);
}

/** Append the section banner of @p title, as bench::banner() prints
 *  it. */
inline void
appendBanner(std::string &out, const std::string &title)
{
    appendf(out, "\n=== %s ===\n\n", title.c_str());
}

/** Append the banner of figure @p number's panel for suite @p suite,
 *  e.g. "Figure 9a: SPEC2000 miss rate reduction". */
inline void
appendPanelBanner(std::string &out, const char *number, std::size_t suite,
                  const char *subject)
{
    appendBanner(out, format("Figure {}{}: {} {}", number,
                             suite == 0 ? "a" : "b",
                             suite == 0 ? "SPEC2000" : "Interactive",
                             subject));
}

/** Table 1: the interactive benchmark catalog. */
inline std::string
table1()
{
    std::string out;
    appendBanner(out, "Table 1: Interactive Windows benchmarks");
    TextTable table({"Name", "Seconds", "Description"});
    table.setAlign(2, Align::Left);
    for (const workload::BenchmarkProfile &profile :
         workload::interactiveProfiles()) {
        table.addRow({profile.name, fixed(profile.durationSec, 0),
                      profile.description});
    }
    out += table.toString();
    appendf(out, "\n(paper Table 1: identical names, durations, and "
                 "descriptions)\n");
    return out;
}

/** Figure 1: the unbounded cache's peak size. */
inline std::string
figure1(const SuiteRecords &suites)
{
    std::string out;
    std::array<double, 2> averages{};
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "1", suite, "maximum code cache size");
        TextTable table({"benchmark", "max cache", "KB"});
        SummaryStats stats;
        for (const ProfileRecord &record : suites[suite]) {
            const std::uint64_t peak =
                record.comparison.unbounded.peakBytes;
            const double kb = static_cast<double>(peak) / 1024.0;
            stats.add(kb);
            table.addRow({record.comparison.benchmark, humanBytes(peak),
                          fixed(kb, 0)});
        }
        table.addSeparator();
        table.addRow({"average",
                      humanBytes(static_cast<std::uint64_t>(
                          stats.mean() * 1024.0)),
                      fixed(stats.mean(), 0)});
        out += table.toString();
        averages[suite] = stats.mean();
    }
    appendf(out, "\nsuite averages: SPEC %.0f KB vs interactive %.0f KB "
                 "(%.1fx gap; paper: 736 KB vs 16.1 MB, ~20x)\n",
            averages[0], averages[1], averages[1] / averages[0]);
    return out;
}

/** Figure 2: code expansion, the unbounded peak over the footprint
 *  (Equation 1). */
inline std::string
figure2(const SuiteRecords &suites)
{
    std::string out;
    std::array<SummaryStats, 2> stats;
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "2", suite, "code expansion");
        TextTable table({"benchmark", "footprint", "max cache",
                         "expansion"});
        for (const ProfileRecord &record : suites[suite]) {
            const std::uint64_t peak =
                record.comparison.unbounded.peakBytes;
            const double expansion =
                100.0 * static_cast<double>(peak) /
                static_cast<double>(record.footprintBytes);
            stats[suite].add(expansion);
            table.addRow({record.comparison.benchmark,
                          humanBytes(record.footprintBytes),
                          humanBytes(peak), fixed(expansion, 0) + "%"});
        }
        table.addSeparator();
        table.addRow(
            {"average", "", "", fixed(stats[suite].mean(), 0) + "%"});
        table.addRow(
            {"stddev", "", "", fixed(stats[suite].stddev(), 0) + "%"});
        out += table.toString();
    }
    appendf(out, "\nexpansion averages: SPEC %.0f%% (sd %.0f%%), "
                 "interactive %.0f%% (sd %.0f%%); paper: ~500%% with "
                 "sd 111%% / 59%%\n",
            stats[0].mean(), stats[0].stddev(), stats[1].mean(),
            stats[1].stddev());
    return out;
}

/** Figure 3: trace insertion rate, created bytes over duration. */
inline std::string
figure3(const SuiteRecords &suites)
{
    std::string out;
    std::array<unsigned, 2> above5{};
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "3", suite, "trace insertion rate");
        TextTable table({"benchmark", "trace bytes", "seconds", "KB/s"});
        for (const ProfileRecord &record : suites[suite]) {
            const double seconds = usToSeconds(record.duration);
            const double rate =
                static_cast<double>(record.createdBytes) / 1024.0 /
                seconds;
            if (rate > 5.0) {
                ++above5[suite];
            }
            table.addRow({record.comparison.benchmark,
                          humanBytes(record.createdBytes),
                          fixed(seconds, 0), fixed(rate, 1)});
        }
        out += table.toString();
    }
    appendf(out, "\nbenchmarks above 5 KB/s: SPEC %u of 26, "
                 "interactive %u of %zu (paper: 2 of 26 vs 11 of 12)\n",
            above5[0], above5[1], suites[1].size());
    return out;
}

/** Figure 4: interactive trace bytes deleted because their module was
 *  unmapped, from the unbounded replay. */
inline std::string
figure4(const SuiteRecords &suites)
{
    std::string out;
    appendBanner(out, "Figure 4: code deleted due to unmapped memory");
    TextTable table({"benchmark", "trace bytes", "unmapped bytes",
                     "deleted"});
    SummaryStats stats;
    for (const ProfileRecord &record : suites[1]) {
        const sim::SimResult &unbounded = record.comparison.unbounded;
        const std::uint64_t unmapped =
            unbounded.managerStats.unmapDeletedBytes;
        const double frac = static_cast<double>(unmapped) /
                            static_cast<double>(unbounded.createdBytes);
        stats.add(frac * 100.0);
        table.addRow({record.comparison.benchmark,
                      humanBytes(unbounded.createdBytes),
                      humanBytes(unmapped), percent(frac)});
    }
    table.addSeparator();
    table.addRow({"average", "", "", fixed(stats.mean(), 1) + "%"});
    out += table.toString();
    appendf(out, "\n(paper: average ~15%% of interactive code deleted "
                 "by unmapping)\n");
    return out;
}

/** Figure 6: trace lifetimes (Equation 2) in five 20% buckets. */
inline std::string
figure6(const SuiteRecords &suites)
{
    std::string out;
    const std::vector<std::string> labels = lifetimeBucketLabels();
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "6", suite, "trace lifetimes");
        std::vector<std::string> headers = {"benchmark"};
        headers.insert(headers.end(), labels.begin(), labels.end());
        TextTable table(headers);
        std::vector<double> sums(labels.size(), 0.0);
        for (const ProfileRecord &record : suites[suite]) {
            std::vector<std::string> row = {record.comparison.benchmark};
            for (std::size_t bin = 0; bin < labels.size(); ++bin) {
                const double frac = record.lifetimeFractions[bin];
                sums[bin] += frac;
                row.push_back(percent(frac, 0));
            }
            table.addRow(row);
        }
        table.addSeparator();
        std::vector<std::string> average = {"average"};
        double extremes = 0.0;
        for (std::size_t bin = 0; bin < labels.size(); ++bin) {
            const double mean =
                sums[bin] / static_cast<double>(suites[suite].size());
            if (bin == 0 || bin == labels.size() - 1) {
                extremes += mean;
            }
            average.push_back(percent(mean, 0));
        }
        table.addRow(average);
        out += table.toString();
        appendf(out, "extreme buckets (<20%% plus >80%%) hold %s of "
                     "traces\n",
                percent(extremes, 0).c_str());
    }
    appendf(out, "\n(paper: U-shaped — most traces live either <20%% "
                 "or >80%% of execution)\n");
    return out;
}

/** Figure 9: miss rate reduction of each paper layout over the
 *  unified cache of the same size. */
inline std::string
figure9(const SuiteRecords &suites)
{
    std::string out;
    const std::vector<sim::GenerationalLayout> layouts =
        sim::paperLayouts();
    std::vector<SummaryStats> all_stats(layouts.size());
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "9", suite, "miss rate reduction");
        std::vector<std::string> headers = {"benchmark", "unified miss"};
        for (const sim::GenerationalLayout &layout : layouts) {
            headers.push_back(layout.label);
        }
        TextTable table(headers);
        std::vector<SummaryStats> suite_stats(layouts.size());
        for (const ProfileRecord &record : suites[suite]) {
            const sim::BenchmarkComparison &comparison =
                record.comparison;
            std::vector<std::string> row = {
                comparison.benchmark,
                percent(comparison.unified.missRate(), 2)};
            for (std::size_t i = 0; i < layouts.size(); ++i) {
                const double reduction =
                    comparison.missRateReductionPct(i);
                suite_stats[i].add(reduction);
                all_stats[i].add(reduction);
                row.push_back(fixed(reduction, 1) + "%");
            }
            table.addRow(row);
        }
        table.addSeparator();
        std::vector<std::string> average = {"average", ""};
        for (const SummaryStats &stats : suite_stats) {
            average.push_back(fixed(stats.mean(), 1) + "%");
        }
        table.addRow(average);
        out += table.toString();
        appendf(out, "(columns show miss rate reduction vs the unified "
                     "baseline; higher is better)\n");
    }
    appendf(out, "\noverall unweighted averages:\n");
    for (std::size_t i = 0; i < layouts.size(); ++i) {
        appendf(out, "  %-18s %6.1f%%\n", layouts[i].label.c_str(),
                all_stats[i].mean());
    }
    appendf(out, "(paper: 45-10-45 thr 1 best overall with ~18%% "
                 "average reduction)\n");
    return out;
}

/** Figure 10: misses the 45-10-45 layout eliminates against the
 *  unified cache, with their magnitude (the paper's log axis). */
inline std::string
figure10(const SuiteRecords &suites)
{
    std::string out;
    const std::vector<sim::GenerationalLayout> layouts =
        sim::paperLayouts();
    const std::size_t lane = layouts.size() - 1; // 45-10-45 thr 1
    appendf(out, "layout: %s\n", layouts[lane].label.c_str());
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "10", suite, "misses eliminated");
        TextTable table({"benchmark", "unified misses", "gen misses",
                         "eliminated", "log10"});
        for (const ProfileRecord &record : suites[suite]) {
            const sim::BenchmarkComparison &comparison =
                record.comparison;
            const std::int64_t eliminated =
                comparison.missesEliminated(lane);
            table.addRow(
                {comparison.benchmark,
                 withCommas(static_cast<std::int64_t>(
                     comparison.unified.misses)),
                 withCommas(static_cast<std::int64_t>(
                     comparison.generational[lane].misses)),
                 withCommas(eliminated),
                 eliminated > 0
                     ? fixed(std::log10(static_cast<double>(eliminated)),
                             1)
                     : "-"});
        }
        out += table.toString();
    }
    appendf(out, "\n(paper: thousands of misses eliminated on most "
                 "benchmarks; log-scale axis)\n");
    return out;
}

/** Figure 11: the 45-10-45 layout's instruction overhead over the
 *  unified cache's (Equation 3, Table 2 costs). */
inline std::string
figure11(const SuiteRecords &suites)
{
    std::string out;
    const std::vector<sim::GenerationalLayout> layouts =
        sim::paperLayouts();
    const std::size_t lane = layouts.size() - 1; // 45-10-45 thr 1
    appendf(out, "layout: %s (smaller ratios are better; <100%% is a "
                 "reduction)\n",
            layouts[lane].label.c_str());
    SummaryStats ratios;
    unsigned above100 = 0;
    for (std::size_t suite = 0; suite < suites.size(); ++suite) {
        appendPanelBanner(out, "11", suite, "overhead ratio");
        TextTable table({"benchmark", "unified overhead",
                         "generational overhead", "ratio"});
        for (const ProfileRecord &record : suites[suite]) {
            const sim::BenchmarkComparison &comparison =
                record.comparison;
            const double ratio = comparison.overheadRatioPct(lane);
            ratios.add(ratio / 100.0);
            if (ratio > 100.0) {
                ++above100;
            }
            table.addRow(
                {comparison.benchmark,
                 withCommas(static_cast<std::int64_t>(
                     comparison.unified.overhead.total())),
                 withCommas(static_cast<std::int64_t>(
                     comparison.generational[lane].overhead.total())),
                 fixed(ratio, 1) + "%"});
        }
        out += table.toString();
    }
    appendf(out, "\ngeometric mean overhead ratio: %s (%u benchmarks "
                 "above 100%%)\n",
            percent(ratios.geomean()).c_str(), above100);
    appendf(out, "(paper: geomean 80.7%%, i.e. 19.3%% fewer "
                 "instructions spent servicing misses; 3 SPEC "
                 "benchmarks above 100%%)\n");
    return out;
}

/** The record of profile @p name in @p suites. */
inline const ProfileRecord &
findRecord(const SuiteRecords &suites, std::string_view name)
{
    for (const std::vector<ProfileRecord> &suite : suites) {
        for (const ProfileRecord &record : suite) {
            if (record.comparison.benchmark == name) {
                return record;
            }
        }
    }
    GENCACHE_PANIC("no record of profile '{}'", name);
}

/** Table 2: the cost model's formulas and their values at the
 *  242-byte median trace. */
inline std::string
table2()
{
    const cost::CostModel model;
    auto instructions = [](InstrCount count) {
        return withCommas(static_cast<std::int64_t>(count));
    };
    std::string out;
    appendBanner(out, "Table 2: overheads used in the evaluation");
    TextTable table({"Description", "Formula (instructions)",
                     "@242 bytes"});
    table.setAlign(1, Align::Left);
    table.addRow({"Trace Generation", "865 * bytes^0.8",
                  instructions(model.traceGeneration(242))});
    table.addRow({"DR Context Switch", "25",
                  instructions(model.contextSwitch())});
    table.addRow({"Evictions", "2.75 * bytes + 2650",
                  instructions(model.eviction(242))});
    table.addRow({"Promotions", "22 * bytes + 8030",
                  instructions(model.promotion(242))});
    table.addSeparator();
    table.addRow({"Conflict miss (2 sw + gen + copy)", "",
                  instructions(model.missCost(242))});
    out += table.toString();
    appendf(out, "(paper: 69,834 generation / 3,316 eviction / 13,354 "
                 "promotion; ~85,000 per miss)\n\n");
    return out;
}

/** §6.1: miss rate reduction over the proportion x threshold grid. */
inline std::string
sweep61(const SuiteRecords &suites)
{
    std::string out;
    appendBanner(out, "Section 6.1 sweep: proportions x thresholds "
                      "(miss rate reduction vs unified)");
    const std::vector<sim::SweepPoint> points = sim::defaultSweepPoints();
    const std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();
    for (std::string_view name : kSweepProfiles) {
        const sim::SweepResult &sweep = *findRecord(suites, name).sweep;
        appendf(out, "\n--- %s (unified miss rate %s, budget %s) ---\n",
                sweep.benchmark.c_str(),
                percent(sweep.unifiedMissRate, 2).c_str(),
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
                row.push_back(fixed(cell.missRateReductionPct, 1) + "%");
            }
            table.addRow(row);
        }
        out += table.toString();
        const sim::SweepCell &best = sweep.best();
        appendf(out, "best: %s thr %u (%.1f%% miss rate reduction)\n",
                best.point.label().c_str(), best.threshold,
                best.missRateReductionPct);
    }
    appendf(out, "\n(paper: small probation caches need low promotion "
                 "thresholds; 45-10-45 thr 1 best overall)\n");
    return out;
}

/** §4.3 ablation: the local policy of a unified cache, by miss rate
 *  and Table 2 overhead. */
inline std::string
ablationLocalPolicy(const SuiteRecords &suites)
{
    std::string out;
    appendBanner(out, "Ablation: local policy in a unified cache "
                      "(miss rate / overhead instr)");
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &[policy, label] : kLocalPolicies) {
        headers.emplace_back(label);
    }
    TextTable table(headers);
    std::array<SummaryStats, kLocalPolicies.size()> totals;
    for (std::string_view name : kLocalPolicyProfiles) {
        const ProfileRecord &record = findRecord(suites, name);
        std::vector<std::string> row = {record.comparison.benchmark};
        for (std::size_t column = 0; column < totals.size(); ++column) {
            const sim::SimResult &result = record.localPolicies[column];
            totals[column].add(
                static_cast<double>(result.overhead.total()));
            row.push_back(format("{} / {}", percent(result.missRate(), 2),
                                 withCommas(static_cast<std::int64_t>(
                                     result.overhead.total()))));
        }
        table.addRow(row);
    }
    out += table.toString();
    appendf(out, "\nmean overhead (instructions):\n");
    for (std::size_t column = 0; column < totals.size(); ++column) {
        appendf(out, "  %-17s %s\n", kLocalPolicies[column].second,
                withCommas(static_cast<std::int64_t>(
                               totals[column].mean()))
                    .c_str());
    }
    appendf(out, "\n(prior-work claim: circular/FIFO competitive with "
                 "LRU at far lower bookkeeping cost; flushing is the "
                 "worst of both)\n");
    return out;
}

/** §6 ablation: 45-10-45 thr 1 against the unified cache at each of
 *  kPressures. */
inline std::string
ablationPressure(const SuiteRecords &suites)
{
    std::string out;
    appendBanner(out, "Ablation: managed-cache pressure (miss-rate "
                      "reduction of 45-10-45 thr 1)");
    std::vector<std::string> headers = {"benchmark"};
    for (double pressure : kPressures) {
        headers.push_back(fixed(pressure, 2) + "x");
    }
    TextTable table(headers);
    for (std::string_view name : kPressureProfiles) {
        const ProfileRecord &record = findRecord(suites, name);
        std::vector<std::string> row = {record.comparison.benchmark};
        for (const auto &[unified, generational] : record.pressure) {
            row.push_back(unified.misses == 0
                              ? "-"
                              : fixed(reductionPct(unified, generational),
                                      1) +
                                    "%");
        }
        table.addRow(row);
    }
    out += table.toString();
    appendf(out, "\n('-' = the unified cache of that size never misses, "
                 "so management is moot; the paper evaluates at "
                 "0.50x)\n");
    return out;
}

/** §5.3 ablation: eviction-time against eager (hit-triggered)
 *  promotion of 45-10-45 thr 1. */
inline std::string
ablationEager(const SuiteRecords &suites)
{
    std::string out;
    appendBanner(out, "Ablation: eviction-time vs eager promotion "
                      "(45-10-45, threshold 1)");
    TextTable table({"benchmark", "unified miss", "eviction-time",
                     "eager", "eager promos", "lazy promos"});
    for (std::string_view name : kEagerProfiles) {
        const ProfileRecord &record = findRecord(suites, name);
        const sim::SimResult &unified = record.comparison.unified;
        const sim::SimResult &lazy = record.promotion[0];
        const sim::SimResult &eager = record.promotion[1];
        table.addRow({record.comparison.benchmark,
                      percent(unified.missRate(), 2),
                      fixed(reductionPct(unified, lazy), 1) + "%",
                      fixed(reductionPct(unified, eager), 1) + "%",
                      withCommas(static_cast<std::int64_t>(
                          eager.managerStats.promotions)),
                      withCommas(static_cast<std::int64_t>(
                          lazy.managerStats.promotions))});
    }
    out += table.toString();
    appendf(out, "\n(§5.3: a single probation hit triggering the upgrade "
                 "removes the need for access counters entirely)\n");
    return out;
}

/** §4.2-4.3: the free space the pseudo-circular cache leaves after
 *  each replay of @p records, then a synthetic pin stress of one
 *  64 KB region. */
inline std::string
fragmentationStudy(const std::vector<FragmentationRecord> &records)
{
    std::string out;
    appendBanner(out, "Fragmentation after replay (pseudo-circular "
                      "unified cache, 0.5x budget)");
    TextTable replays({"benchmark", "free", "extents", "largest",
                       "frag index", "wrap waste", "pinned skips"});
    for (const FragmentationRecord &record : records) {
        replays.addRow(
            {record.benchmark, humanBytes(record.free.freeBytes),
             withCommas(static_cast<std::int64_t>(record.free.freeExtents)),
             humanBytes(record.free.largestFreeExtent),
             fixed(record.free.index(), 3),
             humanBytes(record.wrapWasteBytes),
             withCommas(static_cast<std::int64_t>(record.pinnedSkips))});
    }
    out += replays.toString();
    appendf(out, "(frag index = 1 - largest/total free; 0 means all free "
                 "space is one hole)\n");

    appendBanner(out, "Synthetic pin stress (64 KB region)");
    TextTable stress({"pin fraction", "placement failures",
                      "pinned skips", "wrap waste", "frag index"});
    for (double pin_frac : {0.0, 0.05, 0.20, 0.50}) {
        cache::PseudoCircularCache cache(64 * kKiB);
        Rng rng(42);
        std::vector<cache::Fragment> evicted;
        std::vector<cache::TraceId> pinned;
        for (cache::TraceId id = 1; id <= 20'000; ++id) {
            cache::Fragment frag;
            frag.id = id;
            frag.sizeBytes =
                static_cast<std::uint32_t>(rng.uniformInt(64, 1024));
            evicted.clear();
            if (cache.insert(frag, evicted) && rng.bernoulli(pin_frac)) {
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
        stress.addRow(
            {fixed(pin_frac, 2),
             withCommas(static_cast<std::int64_t>(
                 cache.stats().placementFailures)),
             withCommas(static_cast<std::int64_t>(
                 cache.region().pinnedSkips())),
             humanBytes(cache.region().wrapWasteBytes()),
             fixed(cache.region().fragmentation().index(), 3)});
    }
    out += stress.toString();
    appendf(out, "(pinned fragments force eviction-pointer resets; the "
                 "policy keeps placing without defragmentation)\n");
    return out;
}

/** The profiles the texts measure, SPEC2000 first, scaled by one
 *  reading of GENCACHE_SCALE. */
inline std::vector<workload::BenchmarkProfile>
paperProfiles()
{
    const double factor = scaleFactor();
    std::vector<workload::BenchmarkProfile> profiles =
        scaledSpecProfiles(factor);
    for (workload::BenchmarkProfile &profile :
         scaledInteractiveProfiles(factor)) {
        profiles.push_back(std::move(profile));
    }
    return profiles;
}

/** The fragmentation study's profiles: kFragmentationProfiles, in
 *  order, from @p profiles, with their pin fraction raised to
 *  kFragmentationPinFrac. */
inline std::vector<workload::BenchmarkProfile>
fragmentationProfiles(const std::vector<workload::BenchmarkProfile> &profiles)
{
    std::vector<workload::BenchmarkProfile> pinned;
    for (std::string_view name : kFragmentationProfiles) {
        for (const workload::BenchmarkProfile &profile : profiles) {
            if (profile.name == name) {
                pinned.push_back(profile);
                pinned.back().pinFrac = kFragmentationPinFrac;
            }
        }
    }
    return pinned;
}

/** Every text — Table 1 and the figures in the paper's order, then
 *  Table 2, the §6.1 sweep, the ablations and the fragmentation study
 *  — over paperProfiles(), each profile measured once on @p pool. */
inline std::vector<FigureText>
paperFigures(ThreadPool &pool)
{
    const std::vector<workload::BenchmarkProfile> profiles =
        paperProfiles();
    const Measurements measured = measureProfiles(
        profiles, fragmentationProfiles(profiles), pool);
    const std::vector<ProfileRecord> &records = measured.profiles;
    const auto split =
        records.begin() +
        static_cast<std::ptrdiff_t>(workload::spec2000Profiles().size());
    const SuiteRecords suites = {
        std::vector<ProfileRecord>(records.begin(), split),
        std::vector<ProfileRecord>(split, records.end())};
    return {{"table1", table1()},
            {"fig1", figure1(suites)},
            {"fig2", figure2(suites)},
            {"fig3", figure3(suites)},
            {"fig4", figure4(suites)},
            {"fig6", figure6(suites)},
            {"fig9", figure9(suites)},
            {"fig10", figure10(suites)},
            {"fig11", figure11(suites)},
            {"table2", table2()},
            {"sec61", sweep61(suites)},
            {"ablation_local_policy", ablationLocalPolicy(suites)},
            {"ablation_pressure", ablationPressure(suites)},
            {"ablation_eager", ablationEager(suites)},
            {"fragmentation_study",
             fragmentationStudy(measured.fragmentation)}};
}

} // namespace gencache::bench

#endif // GENCACHE_BENCH_PAPER_FIGURES_H
