/**
 * @file
 * Local code cache management (paper §4): the replacement policy that
 * governs a single cache.
 *
 * All local caches share one interface so global managers (unified or
 * generational, §5) can be composed with any local policy — the paper
 * assumes pseudo-circular locally but explicitly leaves other local
 * policies as an open question, which our ablation bench explores.
 */

#ifndef GENCACHE_CODECACHE_LOCAL_CACHE_H
#define GENCACHE_CODECACHE_LOCAL_CACHE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "codecache/fragment.h"

namespace gencache::cache {

/** Bookkeeping every local cache maintains. */
struct LocalCacheStats
{
    std::uint64_t inserts = 0;
    std::uint64_t insertedBytes = 0;
    std::uint64_t capacityEvictions = 0;
    std::uint64_t capacityEvictedBytes = 0;
    std::uint64_t removals = 0;     ///< remove() calls (unmap or
                                    ///< promotion moves)
    std::uint64_t removedBytes = 0;
    std::uint64_t flushes = 0;
    std::uint64_t placementFailures = 0;
};

/** Replacement policy of a single code cache. */
class LocalCache
{
  public:
    /** @param capacity cache size in bytes (0 = unbounded). */
    explicit LocalCache(std::uint64_t capacity) : capacity_(capacity) {}

    virtual ~LocalCache() = default;

    LocalCache(const LocalCache &) = delete;
    LocalCache &operator=(const LocalCache &) = delete;

    /** Cache size in bytes; 0 means unbounded. */
    std::uint64_t capacity() const { return capacity_; }

    /** @return short policy name, e.g. "pseudo-circular". */
    virtual const char *policyName() const = 0;

    virtual std::uint64_t usedBytes() const = 0;
    virtual std::size_t fragmentCount() const = 0;

    /**
     * Insert @p frag, evicting victims per the policy.
     *
     * @param frag the fragment to insert; must not be resident.
     * @param evicted receives the capacity victims in eviction order.
     * @return false when placement failed (fragment too large or
     *         pinned congestion); the cache is unchanged then.
     */
    virtual bool insert(const Fragment &frag,
                        std::vector<Fragment> &evicted) = 0;

    /** @return the resident fragment, or nullptr. */
    virtual Fragment *find(TraceId id) = 0;

    /** @return true when @p id is resident. */
    virtual bool contains(TraceId id) const = 0;

    /** Notify the policy of an access (recency-based policies). */
    virtual void touch(TraceId id, TimeUs now);

    /** Hot-path hint: true when the policy overrides touch(), so
     *  managers can skip the virtual call on hit for the others. */
    bool observesTouch() const { return observesTouch_; }

    /** Dense-id declaration forwarded by the pipeline (see
     *  TierPipeline::prepareDenseIds). Default: no-op. */
    virtual void reserveDenseIds(std::uint64_t id_bound)
    {
        (void)id_bound;
    }

    /** Program-forced removal (unmapped memory). Ignores pinning: the
     *  code is gone regardless.
     *  @param out receives the removed fragment when non-null.
     *  @return true when the fragment was resident. */
    virtual bool remove(TraceId id, Fragment *out = nullptr) = 0;

    /** Remove every fragment of @p module, appending the removed
     *  fragments to @p out in forEach() order. The default collects
     *  via forEach() and calls remove() per fragment; policies whose
     *  per-fragment removal is not O(1) override this with a bulk
     *  pass. @return the number of fragments removed. */
    virtual std::size_t removeModule(ModuleId module,
                                    std::vector<Fragment> &out);

    /** Mark/unmark a resident fragment undeletable.
     *  @return false when not resident. */
    virtual bool setPinned(TraceId id, bool pinned) = 0;

    /** Remove all unpinned fragments into @p evicted. */
    virtual void flush(std::vector<Fragment> &evicted) = 0;

    /** Visit all resident fragments (order unspecified). */
    virtual void forEach(
        const std::function<void(const Fragment &)> &fn) const = 0;

    const LocalCacheStats &stats() const { return stats_; }

  protected:
    /** Policies that override touch() pass observes_touch = true. */
    LocalCache(std::uint64_t capacity, bool observes_touch)
        : capacity_(capacity), observesTouch_(observes_touch)
    {
    }

    std::uint64_t capacity_;
    LocalCacheStats stats_;

  private:
    bool observesTouch_ = false;
};

/** Local replacement policies available to the factory. */
enum class LocalPolicy {
    PseudoCircular, ///< address-accurate FIFO with pinned skip (§4.3)
    Fifo,           ///< idealized FIFO queue (no layout modeling)
    Lru,            ///< least-recently-used
    PreemptiveFlush, ///< flush everything when full (Dynamo-style)
    Unbounded,      ///< never evicts; tracks peak occupancy
    Srrip,          ///< static re-reference interval prediction
    Brrip,          ///< bimodal RRIP (mostly-distant insertion)
};

/** @return short printable name of @p policy. */
const char *localPolicyName(LocalPolicy policy);

/** @return whether caches of @p policy observe touch() (recency/RRIP
 *  state updated on hit). Static twin of LocalCache::observesTouch()
 *  so the topology linter and the fast-path explainer can answer
 *  eligibility questions without building a cache. */
bool localPolicyObservesTouch(LocalPolicy policy);

/** Create a local cache of @p policy with @p capacity bytes. */
std::unique_ptr<LocalCache> makeLocalCache(LocalPolicy policy,
                                           std::uint64_t capacity);

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_LOCAL_CACHE_H
