#include "codecache/generational_cache.h"

#include <cmath>

#include "support/format.h"
#include "support/logging.h"

namespace gencache::cache {

GenerationalConfig
GenerationalConfig::fromProportions(std::uint64_t total,
                                    double nursery_frac,
                                    double probation_frac,
                                    std::uint32_t threshold, bool eager,
                                    LocalPolicy policy)
{
    // Negated so that a NaN fraction fails the checks too.
    if (!(nursery_frac > 0.0) || !(probation_frac > 0.0) ||
        !(nursery_frac + probation_frac < 1.0)) {
        fatal("invalid generational proportions {} / {}", nursery_frac,
              probation_frac);
    }
    auto part = [total](double frac) {
        auto bytes = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(total) * frac));
        // Tiny totals can round a positive fraction down to zero
        // bytes, which the manager rightly rejects; give the tier its
        // minimum one byte instead.
        return total > 0 && bytes == 0 ? std::uint64_t{1} : bytes;
    };
    GenerationalConfig config;
    config.nurseryBytes = part(nursery_frac);
    config.probationBytes = part(probation_frac);
    if (config.nurseryBytes + config.probationBytes >= total) {
        fatal("generational proportions leave no persistent space");
    }
    config.persistentBytes =
        total - config.nurseryBytes - config.probationBytes;
    if (config.nurseryBytes + config.probationBytes +
            config.persistentBytes != total) {
        GENCACHE_PANIC("generational split of {} does not sum ({} / "
                       "{} / {})", total, config.nurseryBytes,
                       config.probationBytes, config.persistentBytes);
    }
    config.promotionThreshold = threshold;
    config.eagerPromotion = eager;
    config.policy = policy;
    return config;
}

namespace {

/** Validate @p config with the historical diagnostics, then lay it
 *  out as a 3-tier pipeline: always-promote into probation, the
 *  paper's threshold filter into the persistent cache. */
TierPipelineInit
generationalInit(const GenerationalConfig &config)
{
    if (config.nurseryBytes == 0 || config.probationBytes == 0 ||
        config.persistentBytes == 0) {
        fatal("generational caches need positive sizes "
              "({} / {} / {})", config.nurseryBytes,
              config.probationBytes, config.persistentBytes);
    }
    if (config.promotionThreshold == 0) {
        fatal("promotion threshold must be at least 1");
    }
    if (config.policy == LocalPolicy::Unbounded) {
        fatal("generational caches require a bounded local policy");
    }

    double total = static_cast<double>(config.totalBytes());
    auto pct = [total](std::uint64_t bytes) {
        return static_cast<int>(
            std::llround(100.0 * static_cast<double>(bytes) / total));
    };

    TierPipelineInit init;
    init.name = format("generational {}-{}-{} thr={}{}",
                       pct(config.nurseryBytes),
                       pct(config.probationBytes),
                       pct(config.persistentBytes),
                       config.promotionThreshold,
                       config.eagerPromotion ? " eager" : "");
    init.tiers = {
        TierSpec{config.nurseryBytes, config.policy},
        TierSpec{config.probationBytes, config.policy},
        TierSpec{config.persistentBytes, config.policy},
    };
    init.edges.push_back(std::make_unique<AlwaysPromotePolicy>());
    init.edges.push_back(std::make_unique<ThresholdPolicy>(
        config.promotionThreshold, config.eagerPromotion));
    return init;
}

} // namespace

GenerationalCacheManager::GenerationalCacheManager(
    const GenerationalConfig &config)
    : TierPipeline(generationalInit(config))
{
}

std::size_t
GenerationalCacheManager::tierIndexOf(Generation gen) const
{
    for (std::size_t tier = 0; tier < tierCount(); ++tier) {
        if (tierLabel(tier) == gen) {
            return tier;
        }
    }
    GENCACHE_PANIC("generational manager has no {} cache",
                   generationName(gen));
}

} // namespace gencache::cache
