#include "sim/tournament.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <set>

#include "analysis/topology_passes.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace gencache::sim {

namespace {

/** A tier-fraction shape the grid crosses with the policy axes. */
struct Shape
{
    const char *label;
    std::vector<double> fractions;
};

/** One promotion variant, applied to every edge past the first
 *  (the nursery edge stays always-promote, as in the paper: nursery
 *  eviction *is* the promotion into probation). */
struct PromoVariant
{
    const char *label;
    cache::EdgeSpec spec;
};

std::vector<Shape>
multiTierShapes()
{
    return {
        {"2tier-50-50", {0.50, 0.50}},
        {"2tier-70-30", {0.70, 0.30}},
        {"2tier-30-70", {0.30, 0.70}},
        {"3tier-33-33-33", {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0}},
        {"3tier-45-10-45", {0.45, 0.10, 0.45}},
        {"3tier-40-20-40", {0.40, 0.20, 0.40}},
        {"4tier-25x4", {0.25, 0.25, 0.25, 0.25}},
        {"4tier-40-30-20-10", {0.40, 0.30, 0.20, 0.10}},
    };
}

std::vector<PromoVariant>
promoVariants()
{
    using Rule = cache::EdgeSpec::Rule;
    std::vector<PromoVariant> variants;
    for (std::uint32_t threshold : {1u, 2u, 5u, 10u}) {
        cache::EdgeSpec spec;
        spec.rule = Rule::Threshold;
        spec.threshold = threshold;
        variants.push_back({"", spec});
        variants.back().spec.eager = false;
    }
    variants[0].label = "thr1";
    variants[1].label = "thr2";
    variants[2].label = "thr5";
    variants[3].label = "thr10";
    for (std::uint32_t threshold : {2u, 5u}) {
        cache::EdgeSpec spec;
        spec.rule = Rule::Threshold;
        spec.threshold = threshold;
        spec.eager = true;
        variants.push_back({threshold == 2 ? "thr2e" : "thr5e", spec});
    }
    {
        cache::EdgeSpec spec;
        spec.rule = Rule::Temperature;
        spec.threshold = 2;
        spec.halfLifeUs = 50'000;
        variants.push_back({"temp2-50ms", spec});
    }
    {
        cache::EdgeSpec spec;
        spec.rule = Rule::Temperature;
        spec.threshold = 5;
        spec.halfLifeUs = 200'000;
        variants.push_back({"temp5-200ms", spec});
    }
    return variants;
}

const char *
capacityLabel(double factor)
{
    int pct = static_cast<int>(std::llround(factor * 100));
    switch (pct) {
      case 30: return "c30";
      case 50: return "c50";
      case 70: return "c70";
      case 80: return "c80";
      case 90: return "c90";
      default: return "c";
    }
}

TournamentConfig
makeConfig(const Shape &shape, cache::LocalPolicy policy,
           const PromoVariant *promo, double factor)
{
    TournamentConfig config;
    config.topology.name = shape.label;
    config.topology.fractions = shape.fractions;
    config.topology.policy = policy;
    config.capacityFactor = factor;
    config.promotionLabel = promo != nullptr ? promo->label : "none";
    if (shape.fractions.size() > 1) {
        // Nursery edge: eviction is the promotion (Figure 8). Every
        // deeper edge applies the variant under test.
        config.topology.edges.emplace_back();
        config.topology.edges.back().rule =
            cache::EdgeSpec::Rule::AlwaysPromote;
        while (config.topology.edges.size() + 1 <
               shape.fractions.size()) {
            config.topology.edges.push_back(promo->spec);
        }
        if (shape.fractions.size() == 2) {
            // A 2-tier pipeline has only the one edge; the variant
            // under test must own it or the promotion axis is dead.
            config.topology.edges[0] = promo->spec;
        }
    }
    config.name = format("{}|{}|{}|{}", shape.label,
                         cache::localPolicyName(policy),
                         config.promotionLabel,
                         capacityLabel(factor));
    return config;
}

const std::vector<cache::LocalPolicy> kPolicies = {
    cache::LocalPolicy::PseudoCircular,
    cache::LocalPolicy::Lru,
    cache::LocalPolicy::Srrip,
    cache::LocalPolicy::Brrip,
};

} // namespace

std::vector<TournamentConfig>
defaultTournamentConfigs()
{
    const std::vector<Shape> shapes = multiTierShapes();
    const std::vector<PromoVariant> promos = promoVariants();
    const std::vector<double> factors = {0.30, 0.50, 0.70, 0.90};

    std::vector<TournamentConfig> configs;
    configs.reserve(shapes.size() * kPolicies.size() * promos.size() *
                        factors.size() +
                    kPolicies.size() * factors.size());
    // Single-tier entrants first: no promotion axis, so they appear
    // once per (policy, pressure) — including the paper's baseline,
    // unified|pcirc at every pressure point.
    for (cache::LocalPolicy policy : kPolicies) {
        for (double factor : factors) {
            Shape unified{"unified", {1.0}};
            configs.push_back(
                makeConfig(unified, policy, nullptr, factor));
        }
    }
    for (const Shape &shape : shapes) {
        for (cache::LocalPolicy policy : kPolicies) {
            for (const PromoVariant &promo : promos) {
                for (double factor : factors) {
                    configs.push_back(
                        makeConfig(shape, policy, &promo, factor));
                }
            }
        }
    }
    return configs;
}

std::vector<TournamentConfig>
smokeTournamentConfigs()
{
    const std::vector<PromoVariant> all = promoVariants();
    const std::vector<Shape> shapes = {
        {"2tier-50-50", {0.50, 0.50}},
        {"3tier-45-10-45", {0.45, 0.10, 0.45}},
    };
    const std::vector<cache::LocalPolicy> policies = {
        cache::LocalPolicy::PseudoCircular,
        cache::LocalPolicy::Srrip,
    };
    const std::vector<double> factors = {0.50, 0.80};

    std::vector<TournamentConfig> configs;
    for (cache::LocalPolicy policy : policies) {
        for (double factor : factors) {
            Shape unified{"unified", {1.0}};
            configs.push_back(
                makeConfig(unified, policy, nullptr, factor));
        }
    }
    for (const Shape &shape : shapes) {
        for (cache::LocalPolicy policy : policies) {
            for (const PromoVariant *promo :
                 {&all[0], &all[2], &all[6]}) {
                for (double factor : factors) {
                    configs.push_back(
                        makeConfig(shape, policy, promo, factor));
                }
            }
        }
    }
    return configs;
}

TournamentResult
runTournament(const std::vector<workload::BenchmarkProfile> &profiles,
              const std::vector<TournamentConfig> &all_configs,
              std::size_t threads, std::size_t shard_lanes)
{
    if (profiles.empty() || all_configs.empty()) {
        fatal("tournament needs at least one profile and one config");
    }
    if (shard_lanes == 0) {
        shard_lanes = 1;
    }

    // Pre-lint: an ill-formed topology would fatal() inside build()
    // in the middle of a replay shard; reject it up front instead and
    // report why. Budgets vary per profile, so only the
    // budget-independent checks apply here.
    std::vector<TournamentConfig> configs;
    std::vector<TournamentRejection> rejected;
    configs.reserve(all_configs.size());
    for (const TournamentConfig &config : all_configs) {
        analysis::DiagnosticEngine engine;
        if (analysis::lintTopology(config.topology, engine)) {
            configs.push_back(config);
        } else {
            rejected.push_back(
                TournamentRejection{config.name,
                                    engine.diagnostics()});
        }
    }
    if (configs.empty()) {
        fatal("tournament: the topology linter rejected every "
              "configuration ({} of {})", rejected.size(),
              all_configs.size());
    }

    // Distinct pressure points drive the per-profile baselines.
    std::set<double> factorSet;
    for (const TournamentConfig &config : configs) {
        factorSet.insert(config.capacityFactor);
    }
    const std::vector<double> factors(factorSet.begin(),
                                      factorSet.end());

    ThreadPool pool(threads);

    // Phase A: one runner per profile — generate the workload, compile
    // the log, build the cost tables, and prime the unbounded peak and
    // the unified baselines. All later shards share these read-only.
    std::vector<std::unique_ptr<ExperimentRunner>> runners(
        profiles.size());
    std::vector<std::uint64_t> peaks(profiles.size(), 0);
    {
        std::vector<std::future<void>> setup;
        setup.reserve(profiles.size());
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            setup.push_back(pool.submit([&, p]() {
                runners[p] = std::make_unique<ExperimentRunner>(
                    profiles[p]);
                runners[p]->compiled();
                runners[p]->costTables();
                peaks[p] = runners[p]->runUnbounded().peakBytes;
                for (double factor : factors) {
                    runners[p]->runUnified(
                        managedCapacityBytes(peaks[p], factor));
                }
            }));
        }
        for (std::future<void> &future : setup) {
            future.get();
        }
    }

    // Phase B: shard the config list into lane groups; each
    // (profile, shard) task builds its managers and streams the shared
    // compiled log once, advancing the whole shard per lane block.
    std::vector<std::vector<SimResult>> results(profiles.size());
    for (std::vector<SimResult> &row : results) {
        row.resize(configs.size());
    }
    {
        std::vector<std::future<void>> replays;
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            for (std::size_t first = 0; first < configs.size();
                 first += shard_lanes) {
                const std::size_t last = std::min(
                    configs.size(), first + shard_lanes);
                replays.push_back(pool.submit([&, p, first, last]() {
                    const ExperimentRunner &runner = *runners[p];
                    BatchedReplay replay(runner.compiled());
                    replay.setCostTables(&runner.costTables());
                    std::vector<std::unique_ptr<cache::TierPipeline>>
                        managers;
                    managers.reserve(last - first);
                    for (std::size_t c = first; c < last; ++c) {
                        managers.push_back(configs[c].topology.build(
                            managedCapacityBytes(
                                peaks[p],
                                configs[c].capacityFactor)));
                        replay.addLane(*managers.back());
                    }
                    std::vector<SimResult> sims = replay.run();
                    for (std::size_t c = first; c < last; ++c) {
                        sims[c - first].manager = configs[c].name;
                        results[p][c] = std::move(sims[c - first]);
                    }
                }));
            }
        }
        for (std::future<void> &future : replays) {
            future.get();
        }
    }

    // Phase C: serial aggregation in fixed (config, profile) order so
    // the floating-point reductions are reproducible bit-for-bit.
    TournamentResult tournament;
    tournament.profileCount = profiles.size();
    tournament.rejected = std::move(rejected);
    tournament.rows.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const TournamentConfig &config = configs[c];
        TournamentRow row;
        row.config = config.name;
        row.topology = config.topology.name;
        row.localPolicy = cache::localPolicyName(
            config.topology.policy);
        row.promotion = config.promotionLabel;
        row.tierCount = config.topology.fractions.size();
        row.capacityFactor = config.capacityFactor;

        double missSum = 0.0;
        double reductionSum = 0.0;
        double overheadSum = 0.0;
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            const SimResult &sim = results[p][c];
            const SimResult unified = runners[p]->runUnified(
                managedCapacityBytes(peaks[p], config.capacityFactor));
            missSum += sim.missRate();
            const double baseMiss = unified.missRate();
            reductionSum +=
                baseMiss > 0.0
                    ? (1.0 - sim.missRate() / baseMiss) * 100.0
                    : 0.0;
            const double baseOverhead =
                static_cast<double>(unified.overhead.total());
            overheadSum +=
                baseOverhead > 0.0
                    ? static_cast<double>(sim.overhead.total()) /
                          baseOverhead * 100.0
                    : 100.0;
        }
        const double n = static_cast<double>(profiles.size());
        row.meanMissRate = missSum / n;
        row.meanMissRateReductionPct = reductionSum / n;
        row.meanOverheadRatioPct = overheadSum / n;
        tournament.rows.push_back(std::move(row));
    }

    // Pareto front of minimize-(overhead, miss rate): a row survives
    // unless some other row is no worse on both axes and strictly
    // better on one. Ties keep both. O(n^2) is fine at this scale and
    // has no ordering sensitivity.
    for (std::size_t i = 0; i < tournament.rows.size(); ++i) {
        const TournamentRow &a = tournament.rows[i];
        bool dominated = false;
        for (std::size_t j = 0;
             j < tournament.rows.size() && !dominated; ++j) {
            if (j == i) {
                continue;
            }
            const TournamentRow &b = tournament.rows[j];
            dominated =
                b.meanOverheadRatioPct <= a.meanOverheadRatioPct &&
                b.meanMissRate <= a.meanMissRate &&
                (b.meanOverheadRatioPct < a.meanOverheadRatioPct ||
                 b.meanMissRate < a.meanMissRate);
        }
        if (!dominated) {
            tournament.pareto.push_back(i);
        }
    }
    std::sort(tournament.pareto.begin(), tournament.pareto.end(),
              [&](std::size_t x, std::size_t y) {
                  const TournamentRow &a = tournament.rows[x];
                  const TournamentRow &b = tournament.rows[y];
                  if (a.meanOverheadRatioPct !=
                      b.meanOverheadRatioPct) {
                      return a.meanOverheadRatioPct <
                             b.meanOverheadRatioPct;
                  }
                  if (a.meanMissRate != b.meanMissRate) {
                      return a.meanMissRate < b.meanMissRate;
                  }
                  return a.config < b.config;
              });
    return tournament;
}

} // namespace gencache::sim
