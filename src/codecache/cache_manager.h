/**
 * @file
 * Global code cache management (paper §5): the hierarchy and policy of
 * interaction between caches.
 *
 * A CacheManager answers trace lookups and owns one or more local
 * caches. The driver protocol mirrors a dynamic optimizer: on a lookup
 * miss the caller regenerates the trace (paying the Table 2 costs) and
 * then calls insert(). Every cache transition is reported to an
 * optional CacheEventListener, which is how the cost model observes
 * evictions and promotions without coupling the cache code to it.
 *
 * TierPipeline (codecache/tier_pipeline.h) is the one implementation;
 * the generational and unified managers are configurations of it. The
 * runtime, the per-event CacheSimulator and the analysis passes hold
 * this interface, while the blocked replay kernel holds TierPipeline
 * lanes directly.
 */

#ifndef GENCACHE_CODECACHE_CACHE_MANAGER_H
#define GENCACHE_CODECACHE_CACHE_MANAGER_H

#include <cstdint>
#include <string>

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
 * still sees hits. Used by CacheSimulator to attach an analysis probe
 * beside its cost accountant (neither is owned).
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

/** Interface of a global cache management scheme. */
class CacheManager
{
  public:
    virtual ~CacheManager() = default;

    CacheManager() = default;
    CacheManager(const CacheManager &) = delete;
    CacheManager &operator=(const CacheManager &) = delete;

    /** Human-readable configuration name for reports. */
    virtual std::string name() const = 0;

    /**
     * Look up trace @p id at virtual time @p now.
     * @return true on hit. On miss the caller must regenerate the
     *         trace and call insert().
     */
    virtual bool lookup(TraceId id, TimeUs now) = 0;

    /** Insert a newly generated trace. Must not be resident.
     *  @return false when placement failed (trace runs uncached). */
    virtual bool insert(TraceId id, std::uint32_t size_bytes,
                        ModuleId module, TimeUs now) = 0;

    /** Program-forced eviction of every trace tagged @p module. */
    virtual void invalidateModule(ModuleId module, TimeUs now) = 0;

    /** Mark/unmark @p id undeletable.
     *  @return false when not resident. */
    virtual bool setPinned(TraceId id, bool pinned) = 0;

    /** @return true when @p id is resident in any cache. */
    virtual bool contains(TraceId id) const = 0;

    /** Sum of all local cache capacities in bytes. */
    virtual std::uint64_t totalCapacity() const = 0;

    /** Sum of bytes resident across all local caches. */
    virtual std::uint64_t usedBytes() const = 0;

    const ManagerStats &stats() const { return stats_; }

    /** Attach @p listener (not owned; nullptr detaches). */
    void setListener(CacheEventListener *listener)
    {
        listener_ = listener;
    }

  protected:
    CacheEventListener *listener_ = nullptr;
    ManagerStats stats_;
};

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_CACHE_MANAGER_H
