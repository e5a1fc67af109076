/**
 * @file
 * The thousand-configuration policy tournament (sim::runTournament).
 *
 * Crosses tier shapes x local policies x promotion policies x cache
 * pressures into one grid and replays every configuration against
 * every benchmark profile (SPEC2000 + interactive, 38 in all) with
 * the blocked batched-replay kernel, sharded across the thread pool.
 * Each profile's log is generated, compiled, and cost-priced exactly
 * once, shared read-only by every shard.
 *
 * Emits BENCH_tournament.json: per-configuration mean miss rate and
 * Table 2 overhead ratio versus the unified pseudo-circular baseline
 * at the same pressure, plus the deterministically ordered Pareto
 * front of the (overhead, miss rate) plane. Run with --smoke for the
 * CI subset (2 profiles x ~28 configurations, written to
 * BENCH_tournament_smoke.json).
 */

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "sim/tournament.h"
#include "support/format.h"
#include "support/thread_pool.h"

namespace {

using namespace gencache;

bench::JsonObject
rowJson(const sim::TournamentRow &row)
{
    bench::JsonObject entry;
    entry.put("config", row.config)
        .put("topology", row.topology)
        .put("tiers", static_cast<std::uint64_t>(row.tierCount))
        .put("local_policy", row.localPolicy)
        .put("promotion", row.promotion)
        .put("capacity_factor", row.capacityFactor)
        .put("mean_miss_rate", row.meanMissRate)
        .put("mean_miss_reduction_pct", row.meanMissRateReductionPct)
        .put("mean_overhead_ratio_pct", row.meanOverheadRatioPct);
    return entry;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    const double factor = bench::scaleFactor();
    std::vector<workload::BenchmarkProfile> profiles;
    for (const auto &profile : bench::scaledSpecProfiles(factor)) {
        profiles.push_back(profile);
    }
    for (const auto &profile : bench::scaledInteractiveProfiles(factor)) {
        profiles.push_back(profile);
    }
    if (smoke && profiles.size() > 2) {
        profiles.resize(2);
    }

    std::vector<sim::TournamentConfig> configs =
        smoke ? sim::smokeTournamentConfigs()
              : sim::defaultTournamentConfigs();

    const std::size_t threads = ThreadPool::defaultThreadCount();
    bench::banner(format(
        "Policy tournament: {} configurations x {} profiles "
        "({} threads)",
        configs.size(), profiles.size(), threads));

    bench::WallTimer timer;
    sim::TournamentResult result =
        sim::runTournament(profiles, configs, threads);
    double wall_sec = timer.seconds();

    std::printf("replayed %zu configuration-profile pairs in %.2fs\n"
                "Pareto front (%zu configurations):\n",
                configs.size() * profiles.size(), wall_sec,
                result.pareto.size());
    std::size_t shown = 0;
    for (std::size_t index : result.pareto) {
        const sim::TournamentRow &row = result.rows[index];
        std::printf("  %-40s overhead %6.1f%%  miss %7.4f%%  "
                    "reduction %+6.2f%%\n",
                    row.config.c_str(), row.meanOverheadRatioPct,
                    row.meanMissRate * 100.0,
                    row.meanMissRateReductionPct);
        if (++shown == 15 && result.pareto.size() > 15) {
            std::printf("  ... %zu more\n",
                        result.pareto.size() - 15);
            break;
        }
    }

    bench::JsonArray rows;
    for (const sim::TournamentRow &row : result.rows) {
        rows.push(rowJson(row));
    }
    bench::JsonArray pareto;
    for (std::size_t index : result.pareto) {
        pareto.pushRaw(
            bench::JsonObject::quote(result.rows[index].config));
    }

    bench::JsonObject artifact;
    artifact.put("bench", "policy_tournament")
        .put("smoke", smoke)
        .put("config_count",
             static_cast<std::uint64_t>(configs.size()))
        .put("profile_count",
             static_cast<std::uint64_t>(profiles.size()))
        .put("wall_sec", wall_sec)
        .putRaw("rows", rows.toString())
        .putRaw("pareto", pareto.toString());
    bench::writeJsonArtifact(smoke ? "BENCH_tournament_smoke.json"
                                   : "BENCH_tournament.json",
                             artifact, factor, threads);
    return 0;
}
