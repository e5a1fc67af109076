/**
 * @file
 * The baseline global scheme: one unified trace cache (paper §6's
 * comparison baseline, sized at half the benchmark's maximum cache).
 *
 * Since the tier-pipeline refactor this is a one-tier configuration of
 * TierPipeline that adds only views of its tier and keeps no state of
 * its own. Stats and event streams are pinned by the committed digests
 * of tests/test_tier_pipeline.cc, which the pre-pipeline
 * implementation reproduced when they were recorded.
 */

#ifndef GENCACHE_CODECACHE_UNIFIED_CACHE_H
#define GENCACHE_CODECACHE_UNIFIED_CACHE_H

#include "codecache/tier_pipeline.h"

namespace gencache::cache {

/** A single local cache as a one-tier TierPipeline. */
class UnifiedCacheManager : public TierPipeline
{
  public:
    /**
     * @param capacity cache size in bytes (0 = unbounded).
     * @param policy local replacement policy; Unbounded is implied
     *        when capacity is 0.
     */
    explicit UnifiedCacheManager(
        std::uint64_t capacity,
        LocalPolicy policy = LocalPolicy::PseudoCircular);

    /** The underlying local cache (stats, tests). */
    const LocalCache &local() const { return tierCache(0); }

    /** Peak occupancy; meaningful for the unbounded configuration. */
    std::uint64_t peakBytes() const;
};

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_UNIFIED_CACHE_H
