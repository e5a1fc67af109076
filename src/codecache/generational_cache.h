/**
 * @file
 * Generational code cache management (paper §5, Figures 7 and 8).
 *
 * Three separately managed caches per thread:
 *
 *   nursery    — every newly generated trace is inserted here.
 *   probation  — victim filter: nursery evictees land here; hits while
 *                on probation increment an access counter.
 *   persistent — long-lived traces; probation evictees whose access
 *                count reached the promotion threshold move here,
 *                everything else is deleted.
 *
 * Since the tier-pipeline refactor this manager is a named
 * configuration of TierPipeline: its constructor maps a
 * GenerationalConfig onto a 3-tier pipeline with an always-promote
 * edge (nursery -> probation) and a threshold edge (probation ->
 * persistent), and it adds only views by Generation, keeping no state
 * of its own. Figure 8's cascade, the residency index, and all event
 * emission live in TierPipeline. Stats and event streams are pinned
 * by the committed digests of tests/test_tier_pipeline.cc, which the
 * pre-pipeline monolith reproduced when they were recorded.
 *
 * §5.3's eager variant — reaching the threshold on a probation *hit*
 * immediately triggers the upgrade — is the threshold edge's eager
 * flag.
 */

#ifndef GENCACHE_CODECACHE_GENERATIONAL_CACHE_H
#define GENCACHE_CODECACHE_GENERATIONAL_CACHE_H

#include "codecache/tier_pipeline.h"

namespace gencache::cache {

/** Sizing and policy knobs of the generational hierarchy. */
struct GenerationalConfig
{
    std::uint64_t nurseryBytes = 0;
    std::uint64_t probationBytes = 0;
    std::uint64_t persistentBytes = 0;

    /** Probation access count required for promotion (>= 1). */
    std::uint32_t promotionThreshold = 1;

    /** When true, a probation hit that reaches the threshold promotes
     *  immediately (§5.3's counter-free single-hit policy uses
     *  threshold 1 with this enabled). */
    bool eagerPromotion = false;

    /** Local replacement policy of all three caches. */
    LocalPolicy policy = LocalPolicy::PseudoCircular;

    std::uint64_t totalBytes() const
    {
        return nurseryBytes + probationBytes + persistentBytes;
    }

    /**
     * Split @p total bytes by percentage, e.g. 45/10/45. The nursery
     * and probation parts round to the nearest byte (but never below
     * one byte when @p total is positive); the persistent cache
     * absorbs the remainder so the parts sum exactly to @p total.
     */
    static GenerationalConfig fromProportions(
        std::uint64_t total, double nursery_frac, double probation_frac,
        std::uint32_t threshold, bool eager = false,
        LocalPolicy policy = LocalPolicy::PseudoCircular);
};

/** The paper's proposed global management scheme. */
class GenerationalCacheManager : public TierPipeline
{
  public:
    explicit GenerationalCacheManager(const GenerationalConfig &config);

    /** Which cache currently holds @p id; panics when absent. */
    Generation generationOf(TraceId id) const
    {
        return tierLabel(tierOf(id));
    }

    const LocalCache &localCache(Generation gen) const
    {
        return tierCache(tierIndexOf(gen));
    }

    const GenerationStats &generationStats(Generation gen) const
    {
        return tierStats(tierIndexOf(gen));
    }

  private:
    std::size_t tierIndexOf(Generation gen) const;
};

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_GENERATIONAL_CACHE_H
