/**
 * @file
 * Cache-state pass family: storage-level invariants of the code caches.
 *
 * Re-derives, from raw introspection state, everything the cache layer
 * promises the rest of the system:
 *
 *  - PseudoCircularCache / CacheRegion (§4.3): the rotated split pair
 *    is sorted, every fragment sits in the correct half, fragments
 *    never overlap or leave the region, the id index and byte/pinned
 *    accounting agree with the fragments actually present.
 *  - ListCache (FIFO/LRU/flush/unbounded): the victim ring is a
 *    well-formed doubly linked list, the free list is disjoint from it
 *    and together they cover the slab, and index/byte accounting
 *    agree.
 *  - TierPipeline (§5, Figure 8, generalized to any tier count —
 *    covering GenerationalCacheManager, UnifiedCacheManager, and every
 *    TierTopology): every trace is resident in exactly one tier, the
 *    residency index matches the caches, and the promotion counters
 *    obey the cascade's conservation identities (nothing flows into
 *    the first tier or out of the last, counts match across adjacent
 *    tiers, the manager total is the sum of tier admissions).
 *
 * The pass checks the pipeline its AnalysisInput names, or else the
 * runtime's; analysis::checkManager runs it over a pipeline alone.
 *
 * Check IDs: region-unsorted, region-split, region-overlap,
 * region-oob, region-pointer-oob, region-index, region-bytes,
 * region-pinned-count, list-ring-broken, list-free-broken, list-index,
 * list-bytes, list-over-capacity, cache-bytes, cache-over-capacity,
 * tier-dup-residency, tier-index-mismatch, tier-flow. The pre-pipeline
 * IDs gen-dup-residency / gen-index-mismatch / gen-flow remain valid
 * aliases of the tier-* IDs (DiagnosticEngine canonicalizes both
 * spellings).
 */

#ifndef GENCACHE_ANALYSIS_CACHE_PASSES_H
#define GENCACHE_ANALYSIS_CACHE_PASSES_H

#include <string>

#include "analysis/pass.h"

namespace gencache::cache {
class LocalCache;
} // namespace gencache::cache

namespace gencache::analysis {

/** Validates the cache manager's storage state. Cheap: linear in
 *  resident fragments, so it runs at phase boundaries. */
class CacheStatePass : public Pass
{
  public:
    const char *name() const override { return "cache-state"; }
    void run(const AnalysisInput &input,
             DiagnosticEngine &out) const override;
};

/** Check one local cache directly (test support). @p where prefixes
 *  diagnostic locations, e.g. "nursery". */
void checkLocalCache(const cache::LocalCache &cache,
                     const std::string &where, DiagnosticEngine &out);

} // namespace gencache::analysis

#endif // GENCACHE_ANALYSIS_CACHE_PASSES_H
