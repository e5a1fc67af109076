/**
 * @file
 * The paper's results — Table 1 and Figures 1-4, 6 and 9-11 — as one
 * function of the 38 benchmark profiles.
 *
 * Each profile is generated and run through the §6 methodology once,
 * as one task on a ThreadPool, largest profiles first. A task returns
 * only the small record the figures read (ProfileRecord); its runner,
 * log and compiled log are freed when it ends. The figures are then
 * rendered from the records in profile order, after every task has
 * finished, so their text does not depend on the worker count.
 *
 * compare(paperLayouts()) serves five figures: its memoized unbounded
 * result gives Figures 1, 2 and 4, and its last lane, 45-10-45 thr 1,
 * Figures 10 and 11 (a one-lane compare() of that layout gives the
 * same lane). bench/paper_figures prints every figure;
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
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/experiment.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "support/format.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/lifetime.h"
#include "workload/profile.h"

namespace gencache::bench {

/** One table or figure: its name ("table1", "fig1", ...) and the text
 *  it prints. */
struct FigureText
{
    std::string name;
    std::string text;
};

/** What one profile contributes to the figures. */
struct ProfileRecord
{
    std::uint64_t footprintBytes = 0; ///< the log's static code (Fig 2)
    std::uint64_t createdBytes = 0;   ///< trace bytes created (Fig 3)
    TimeUs duration = 0;              ///< the log's duration (Fig 3)
    std::vector<double> lifetimeFractions; ///< Fig 6, one per bucket
    sim::BenchmarkComparison comparison;   ///< compare(paperLayouts())
};

/** The SPEC2000 records, then the interactive ones, each suite in
 *  profile order. */
using SuiteRecords = std::array<std::vector<ProfileRecord>, 2>;

/** Generate @p profile's log, run compare(paperLayouts()) on it, and
 *  keep only what the figures read. */
inline ProfileRecord
measureProfile(const workload::BenchmarkProfile &profile)
{
    const sim::ExperimentRunner runner(profile);
    const tracelog::AccessLog &log = runner.log();
    ProfileRecord record;
    record.footprintBytes = log.footprintBytes();
    record.createdBytes = log.createdTraceBytes();
    record.duration = log.duration();
    const Histogram lifetimes =
        tracelog::LifetimeAnalyzer(log).lifetimeHistogram();
    for (std::size_t bin = 0; bin < lifetimes.binCount(); ++bin) {
        record.lifetimeFractions.push_back(lifetimes.binFraction(bin));
    }
    record.comparison = runner.compare(sim::paperLayouts());
    return record;
}

/** measureProfile() of each of @p profiles as one task on @p pool.
 *  The tasks are queued largest first, by unbounded size times mean
 *  executions per trace (a proxy for the event count), so the longest
 *  ones do not start last; the records come back in profile order. */
inline std::vector<ProfileRecord>
measureProfiles(const std::vector<workload::BenchmarkProfile> &profiles,
                ThreadPool &pool)
{
    auto work = [](const workload::BenchmarkProfile &profile) {
        return profile.finalCacheKb * profile.execsPerTraceMean;
    };
    std::vector<std::size_t> order(profiles.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return work(profiles[a]) > work(profiles[b]);
                     });
    std::vector<std::future<ProfileRecord>> futures(profiles.size());
    for (std::size_t index : order) {
        futures[index] = pool.submit([&profile = profiles[index]] {
            return measureProfile(profile);
        });
    }
    std::vector<ProfileRecord> records;
    records.reserve(profiles.size());
    for (std::future<ProfileRecord> &future : futures) {
        records.push_back(future.get());
    }
    return records;
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

/** The profiles Table 1 and the figures measure, SPEC2000 first,
 *  scaled by one reading of GENCACHE_SCALE. */
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

/** Table 1 and every figure, in the paper's order, over
 *  paperProfiles(), each profile measured once on @p pool. */
inline std::vector<FigureText>
paperFigures(ThreadPool &pool)
{
    const std::size_t spec_count = workload::spec2000Profiles().size();
    std::vector<ProfileRecord> records =
        measureProfiles(paperProfiles(), pool);
    const auto split = records.begin() +
                       static_cast<std::ptrdiff_t>(spec_count);
    const SuiteRecords suites = {
        std::vector<ProfileRecord>(records.begin(), split),
        std::vector<ProfileRecord>(split, records.end())};
    return {{"table1", table1()},         {"fig1", figure1(suites)},
            {"fig2", figure2(suites)},    {"fig3", figure3(suites)},
            {"fig4", figure4(suites)},    {"fig6", figure6(suites)},
            {"fig9", figure9(suites)},    {"fig10", figure10(suites)},
            {"fig11", figure11(suites)}};
}

} // namespace gencache::bench

#endif // GENCACHE_BENCH_PAPER_FIGURES_H
