/**
 * @file
 * What global code cache management (paper §5) reports: the
 * CacheEventListener every cache transition is delivered to, the
 * TeeListener that fans one event stream out to two observers, and
 * the ManagerStats counters of a manager.
 *
 * The manager itself is cache::TierPipeline (codecache/tier_pipeline.h),
 * the one cache type; the generational and unified managers are named
 * configurations of it.
 */

#ifndef GENCACHE_CODECACHE_CACHE_MANAGER_H
#define GENCACHE_CODECACHE_CACHE_MANAGER_H

#include <cstdint>

#include "codecache/fragment.h"
#include "codecache/local_cache.h"

namespace gencache::cache {

/** Observer of cache transitions (cost accounting, logging, tests). */
class CacheEventListener
{
  public:
    virtual ~CacheEventListener() = default;

    /** Hot-path hint: skip the virtual onHit/onMiss calls for
     *  listeners that never override them (cost accounting only
     *  observes inserts, evictions, and promotions). */
    bool wantsHits() const { return wantsHits_; }
    bool wantsMisses() const { return wantsMisses_; }

    /** A lookup missed: the trace must be (re)generated. */
    virtual void onMiss(TraceId id, TimeUs now)
    {
        (void)id;
        (void)now;
    }

    /** A lookup hit in @p gen. */
    virtual void onHit(TraceId id, Generation gen, TimeUs now)
    {
        (void)id;
        (void)gen;
        (void)now;
    }

    /** @p frag entered @p gen (fresh insert, not a promotion). */
    virtual void onInsert(const Fragment &frag, Generation gen,
                          TimeUs now)
    {
        (void)frag;
        (void)gen;
        (void)now;
    }

    /** @p frag left @p gen. For reason PromotionMove an onPromote
     *  follows; all other reasons destroy the cached code. */
    virtual void onEvict(const Fragment &frag, Generation gen,
                         EvictReason reason, TimeUs now)
    {
        (void)frag;
        (void)gen;
        (void)reason;
        (void)now;
    }

    /** @p frag moved from @p from to @p to (code relocation, §5.4). */
    virtual void onPromote(const Fragment &frag, Generation from,
                           Generation to, TimeUs now)
    {
        (void)frag;
        (void)from;
        (void)to;
        (void)now;
    }

    /** Module @p module finished unloading: every onEvict with reason
     *  Unmap for its fragments has been delivered. Emitted by
     *  TierPipeline (and its adapters) after invalidateModule so
     *  temporal checkers can verify unload completeness; cost
     *  accounting ignores it. */
    virtual void onModuleUnload(ModuleId module, TimeUs now)
    {
        (void)module;
        (void)now;
    }

  protected:
    CacheEventListener() = default;

    /** Subclasses that leave onHit/onMiss as the base no-ops should
     *  pass false so managers can skip the virtual dispatch. */
    CacheEventListener(bool wants_hits, bool wants_misses)
        : wantsHits_(wants_hits), wantsMisses_(wants_misses)
    {
    }

  private:
    bool wantsHits_ = true;
    bool wantsMisses_ = true;
};

/**
 * Fan-out listener: forwards every event to two listeners, @p first
 * before @p second. The hit/miss dispatch hints are the union of the
 * two, so a hit-indifferent accountant plus a hit-observing checker
 * still sees hits. sim::BatchedReplay tees a lane's probe (the
 * temporal checker, a test's stream capture) in after the lane's cost
 * accountant this way (neither is owned).
 */
class TeeListener : public CacheEventListener
{
  public:
    TeeListener(CacheEventListener &first, CacheEventListener &second)
        : CacheEventListener(
              first.wantsHits() || second.wantsHits(),
              first.wantsMisses() || second.wantsMisses()),
          first_(first), second_(second)
    {
    }

    void onMiss(TraceId id, TimeUs now) override
    {
        if (first_.wantsMisses()) {
            first_.onMiss(id, now);
        }
        if (second_.wantsMisses()) {
            second_.onMiss(id, now);
        }
    }

    void onHit(TraceId id, Generation gen, TimeUs now) override
    {
        if (first_.wantsHits()) {
            first_.onHit(id, gen, now);
        }
        if (second_.wantsHits()) {
            second_.onHit(id, gen, now);
        }
    }

    void onInsert(const Fragment &frag, Generation gen,
                  TimeUs now) override
    {
        first_.onInsert(frag, gen, now);
        second_.onInsert(frag, gen, now);
    }

    void onEvict(const Fragment &frag, Generation gen,
                 EvictReason reason, TimeUs now) override
    {
        first_.onEvict(frag, gen, reason, now);
        second_.onEvict(frag, gen, reason, now);
    }

    void onPromote(const Fragment &frag, Generation from,
                   Generation to, TimeUs now) override
    {
        first_.onPromote(frag, from, to, now);
        second_.onPromote(frag, from, to, now);
    }

    void onModuleUnload(ModuleId module, TimeUs now) override
    {
        first_.onModuleUnload(module, now);
        second_.onModuleUnload(module, now);
    }

  private:
    CacheEventListener &first_;
    CacheEventListener &second_;
};

/** Aggregate counters of a global manager. */
struct ManagerStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t insertedBytes = 0;
    std::uint64_t deletions = 0;      ///< capacity + rejection deletions
    std::uint64_t deletedBytes = 0;
    std::uint64_t unmapDeletions = 0;
    std::uint64_t unmapDeletedBytes = 0;
    std::uint64_t promotions = 0;     ///< all inter-cache moves
    std::uint64_t promotedBytes = 0;
    std::uint64_t probationRejections = 0;
    std::uint64_t placementFailures = 0;

    /** Fraction of lookups that missed (0 when no lookups). */
    double missRate() const
    {
        return lookups == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(lookups);
    }
};

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_CACHE_MANAGER_H
