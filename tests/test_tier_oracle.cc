// Randomized differential test of the replay pipeline against the
// independent Figure-8 model of figure8_oracle.h.
//
// Each case draws a random tier topology that analysis::lintTopology
// accepts, a random capacity and a short random log with traces
// larger than some tiers, pins, module unloads and reloads. The case
// replays as a one-lane blocked pass (sim::BatchedReplay over the
// compiled log) with a TemporalChecker bound to the pipeline and teed
// in as the lane's probe; every numeric SimResult field must equal
// the model's, and the checker must report nothing. Odd cases give
// the checker no hit or miss events, so their lanes take the
// fast-replay sidecar path wherever the topology allows it.
//
// Cases come from one fixed seed, so a failure reproduces: it prints
// the case index, the topology and the first field that differs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/temporal_passes.h"
#include "analysis/topology_passes.h"
#include "codecache/tier_pipeline.h"
#include "figure8_oracle.h"
#include "sim/batched_replay.h"
#include "sim_identity.h"
#include "support/format.h"
#include "support/rng.h"
#include "tracelog/compiled_log.h"
#include "tracelog/event.h"

namespace {

using namespace gencache;
using cache::EdgeSpec;
using cache::LocalPolicy;
using cache::TierTopology;

constexpr std::uint64_t kSeed = 0x6f7261636c65ULL;
constexpr int kCases = 20000;

/** A random topology. Its fractions are small integer weights over
 *  their sum, @p weight_sum, so a budget of 16 * weight_sum * k bytes
 *  splits into whole multiples of 16. */
TierTopology
randomTopology(Rng &rng, std::int64_t &weight_sum)
{
    TierTopology topology;
    topology.name = "oracle";
    const auto tiers = static_cast<std::size_t>(rng.uniformInt(1, 4));
    const LocalPolicy policies[] = {
        LocalPolicy::PseudoCircular, LocalPolicy::Fifo, LocalPolicy::Lru,
        LocalPolicy::Unbounded};
    topology.policy = policies[rng.uniformInt(0, tiers == 1 ? 3 : 2)];
    topology.pins = rng.bernoulli(0.5) ? cache::PinHandling::Shed
                                       : cache::PinHandling::Sticky;
    std::vector<std::int64_t> weights;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < tiers; ++i) {
        weights.push_back(rng.uniformInt(1, 6));
        sum += weights.back();
    }
    for (std::int64_t weight : weights) {
        topology.fractions.push_back(static_cast<double>(weight) /
                                     static_cast<double>(sum));
    }
    weight_sum = sum;
    for (std::size_t i = 0; i + 1 < tiers; ++i) {
        EdgeSpec edge;
        const std::int64_t rule = rng.uniformInt(0, 4);
        edge.rule = rule == 0   ? EdgeSpec::Rule::AlwaysPromote
                    : rule == 1 ? EdgeSpec::Rule::AlwaysDelete
                                : EdgeSpec::Rule::Threshold;
        edge.threshold = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
        edge.eager = rng.bernoulli(0.35);
        topology.edges.push_back(edge);
    }
    return topology;
}

/** The model's view of @p topology over @p total bytes: each tier but
 *  the last gets its rounded share (at least one byte), the last one
 *  what remains. */
oracle::Topology
modelOf(const TierTopology &topology, std::uint64_t total)
{
    oracle::Topology model;
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < topology.fractions.size(); ++i) {
        oracle::TierModel tier;
        if (i + 1 < topology.fractions.size()) {
            tier.capacity = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(std::llround(
                       static_cast<double>(total) *
                       topology.fractions[i])));
            assigned += tier.capacity;
        } else {
            tier.capacity = total - assigned;
        }
        switch (topology.policy) {
          case LocalPolicy::Fifo: tier.local = oracle::Local::Fifo; break;
          case LocalPolicy::Lru: tier.local = oracle::Local::Lru; break;
          case LocalPolicy::Unbounded:
            tier.local = oracle::Local::Unbounded;
            break;
          default: tier.local = oracle::Local::PseudoCircular; break;
        }
        tier.shedPins = topology.pins == cache::PinHandling::Shed;
        model.tiers.push_back(tier);
    }
    for (const EdgeSpec &edge : topology.edges) {
        oracle::EdgeModel model_edge;
        model_edge.rule =
            edge.rule == EdgeSpec::Rule::AlwaysPromote
                ? oracle::Rule::AlwaysPromote
            : edge.rule == EdgeSpec::Rule::AlwaysDelete
                ? oracle::Rule::AlwaysDelete
                : oracle::Rule::Threshold;
        model_edge.threshold = edge.threshold;
        model_edge.eager = edge.eager;
        model.edges.push_back(model_edge);
    }
    return model;
}

std::string
describe(const TierTopology &topology, std::uint64_t total)
{
    std::string text =
        format("{} tier(s) of {}, {} pins, {} bytes; fractions",
               topology.fractions.size(),
               cache::localPolicyName(topology.policy),
               topology.pins == cache::PinHandling::Shed ? "shed"
                                                         : "sticky",
               total);
    for (double fraction : topology.fractions) {
        text += format(" {}", fraction);
    }
    for (const EdgeSpec &edge : topology.edges) {
        text += edge.rule == EdgeSpec::Rule::AlwaysPromote
                    ? "; always-promote"
                : edge.rule == EdgeSpec::Rule::AlwaysDelete
                    ? "; always-delete"
                    : format("; threshold {}{}", edge.threshold,
                             edge.eager ? " eager" : "");
    }
    return text;
}

/**
 * A short random log over a few modules: creations (some larger than
 * a tier, or than the whole cache), executions biased to the newest
 * traces, pins and unpins, unloads, and reloads that re-create traces
 * under their old ids. Only traces of loaded modules are used.
 */
tracelog::AccessLog
randomLog(Rng &rng, std::uint64_t total, std::uint32_t unit)
{
    using tracelog::Event;
    struct Live
    {
        cache::TraceId id;
        cache::ModuleId module;
    };
    constexpr cache::ModuleId kModules = 4;
    tracelog::AccessLog log;
    log.setBenchmark("oracle");
    TimeUs now = 0;
    std::vector<bool> loaded(kModules + 1, false);
    std::vector<std::vector<cache::TraceId>> unloaded(kModules + 1);
    std::vector<Live> live;
    cache::TraceId next = 1000 + rng.bits() % 1000;
    for (cache::ModuleId m = 1; m <= kModules; ++m) {
        if (m == 1 || rng.bernoulli(0.5)) {
            loaded[m] = true;
            log.append(Event::moduleLoad(now, m));
        }
    }

    const std::int64_t events = rng.uniformInt(40, 260);
    for (std::int64_t e = 0; e < events; ++e) {
        now += static_cast<TimeUs>(rng.uniformInt(0, 2));
        const double dice = rng.uniform01();
        if (live.empty() || dice < 0.16) {
            std::vector<cache::ModuleId> choices;
            for (cache::ModuleId m = 1; m <= kModules; ++m) {
                if (loaded[m]) {
                    choices.push_back(m);
                }
            }
            if (choices.empty()) {
                loaded[1] = true;
                log.append(Event::moduleLoad(now, 1));
                continue;
            }
            const cache::ModuleId m = choices[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      choices.size()) - 1))];
            cache::TraceId id = next;
            if (!unloaded[m].empty() && rng.bernoulli(0.6)) {
                id = unloaded[m].back();
                unloaded[m].pop_back();
            } else {
                next += static_cast<cache::TraceId>(rng.uniformInt(1, 9));
            }
            auto size = static_cast<std::uint32_t>(
                unit * rng.uniformInt(1, 192 / unit));
            if (rng.bernoulli(0.05)) {
                size = static_cast<std::uint32_t>(rng.uniformInt(
                    static_cast<std::int64_t>(total / 4),
                    static_cast<std::int64_t>(total * 3 / 2)));
            }
            log.append(Event::traceCreate(now, id, size, m));
            live.push_back(Live{id, m});
        } else if (dice < 0.78) {
            const auto count = static_cast<std::int64_t>(live.size());
            const std::int64_t pick =
                rng.bernoulli(0.6)
                    ? count - 1 - rng.uniformInt(0, std::min<std::int64_t>(
                                                        count, 4) - 1)
                    : rng.uniformInt(0, count - 1);
            log.append(Event::traceExec(
                now, live[static_cast<std::size_t>(pick)].id));
        } else if (dice < 0.90) {
            const Live &trace = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      live.size()) - 1))];
            log.append(dice < 0.86 ? Event::pin(now, trace.id)
                                   : Event::unpin(now, trace.id));
        } else {
            const auto m = static_cast<cache::ModuleId>(
                rng.uniformInt(1, kModules));
            if (!loaded[m]) {
                loaded[m] = true;
                log.append(Event::moduleLoad(now, m));
                continue;
            }
            loaded[m] = false;
            log.append(Event::moduleUnload(now, m));
            std::vector<Live> kept;
            for (const Live &trace : live) {
                if (trace.module == m) {
                    unloaded[m].push_back(trace.id);
                } else {
                    kept.push_back(trace);
                }
            }
            live = std::move(kept);
        }
    }
    log.setDuration(now + 1);
    return log;
}

TEST(TierOracle, RandomCasesMatchTheModel)
{
    Rng rng(kSeed);
    int fastLanes = 0;
    int rejected = 0;
    for (int index = 0; index < kCases; ++index) {
        std::int64_t weights = 0;
        TierTopology topology = randomTopology(rng, weights);
        // Aligned cases use 16-byte multiples for tiers and traces, so
        // traces often fill a tier's tail exactly.
        const bool aligned = rng.bernoulli(0.5);
        const std::uint64_t total = static_cast<std::uint64_t>(
            aligned ? 16 * weights * rng.uniformInt(2, 12)
                    : rng.uniformInt(64, 2048));
        analysis::DiagnosticEngine lint;
        if (!analysis::lintTopology(topology, total, lint)) {
            ++rejected;
            continue;
        }
        const tracelog::AccessLog log =
            randomLog(rng, total, aligned ? 16 : 1);
        ASSERT_EQ(log.firstViolation(), "") << "case " << index;

        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(log);
        std::unique_ptr<cache::TierPipeline> pipeline =
            topology.build(total);
        analysis::TemporalOptions options;
        options.observeHitsMisses = index % 2 == 0;
        analysis::DiagnosticEngine findings;
        analysis::TemporalChecker checker(findings, options);
        checker.bindSubject(pipeline.get(), &compiled.originalIds());
        sim::BatchedReplay replay(compiled);
        replay.addLane(*pipeline, &checker);
        const sim::SimResult got = replay.run().front();
        checker.finish();
        fastLanes += pipeline->fastReplayEnabled() ? 1 : 0;

        const sim::SimResult want =
            oracle::Figure8Model(modelOf(topology, total)).replay(log);
        const auto gotFields = identity::numericFields(got);
        const auto wantFields = identity::numericFields(want);
        for (std::size_t f = 0; f < gotFields.size(); ++f) {
            if (gotFields[f].second != wantFields[f].second) {
                FAIL() << "case " << index << ": "
                       << describe(topology, total) << "\n"
                       << gotFields[f].first << " is "
                       << gotFields[f].second << ", the model says "
                       << wantFields[f].second;
            }
        }
        ASSERT_TRUE(findings.empty())
            << "case " << index << ": " << describe(topology, total)
            << "\n"
            << findings.textReport();
    }
    // The draw must keep exercising both kernel paths and leave most
    // topologies to lint-clean cases.
    EXPECT_GT(fastLanes, kCases / 10);
    EXPECT_LT(rejected, kCases / 2);
}

} // namespace
