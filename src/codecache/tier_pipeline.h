/**
 * @file
 * The composable tier-pipeline cache core.
 *
 * The paper's nursery/probation/persistent hierarchy (§5, Figure 8) is
 * one point in a larger design space: an ordered pipeline of local
 * caches with a *promotion policy* on every inter-tier edge. A
 * TierPipeline is built from
 *
 *   - an ordered vector of TierSpec{capacity, LocalPolicy,
 *     pin handling}, tier 0 receiving all fresh inserts, and
 *   - one PromotionPolicy per edge (tier i -> tier i+1) deciding what
 *     happens to tier i's capacity victims (advance or delete) and
 *     whether a hit upgrades a fragment immediately (§5.3's eager
 *     variant).
 *
 * Figure 8's victim cascade, the TraceIndex residency map, dense-id
 * preparation, module invalidation, pinning, ManagerStats and
 * CacheEventListener emission all live here, once. TierPipeline is the
 * one cache type, with no base class: the runtime, the replay loop,
 * the analysis passes and gencheck all hold it. GenerationalCacheManager
 * and UnifiedCacheManager are named configurations that add only
 * constructors and typed views; their stats and event streams are
 * pinned by digests in
 * tests/test_tier_pipeline.cc, recorded while the pre-pipeline
 * monoliths still ran beside them and agreed.
 *
 * Tier labels keep the paper's vocabulary: a single tier is Unified,
 * the first tier of a multi-tier pipeline is the Nursery and the last
 * the Persistent cache (so the cost model's §5.4 relocation pricing
 * applies unchanged), with Probation naming the middle of a 3-tier
 * pipeline and Tier1..Tier6 naming the middles of deeper ones.
 */

#ifndef GENCACHE_CODECACHE_TIER_PIPELINE_H
#define GENCACHE_CODECACHE_TIER_PIPELINE_H

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "codecache/cache_manager.h"
#include "codecache/shared_store.h"
#include "codecache/trace_index.h"

namespace gencache::cache {

/** Index of a tier within a pipeline (0 = insertion tier). */
using TierId = std::uint8_t;

/** Deepest supported pipeline. */
constexpr std::size_t kMaxTiers = 8;

/** What happens to a fragment's pin bit when it leaves a tier
 *  upward (promotion or eager upgrade). */
enum class PinHandling : std::uint8_t {
    Sticky, ///< the pin bit survives the move (legacy behavior)
    Shed,   ///< promotion clears the pin bit
};

/** Sizing and policy of one tier. */
struct TierSpec
{
    std::uint64_t capacityBytes = 0;
    LocalPolicy policy = LocalPolicy::PseudoCircular;
    PinHandling pins = PinHandling::Sticky;
};

/** Per-tier counters beyond the local cache stats. */
struct GenerationStats
{
    std::uint64_t hits = 0;
    std::uint64_t promotionsIn = 0;   ///< fragments that moved in
    std::uint64_t promotionsOut = 0;  ///< fragments that moved up
    std::uint64_t deletions = 0;      ///< destroyed while resident here
};

/**
 * Decision logic of one inter-tier edge (tier i -> tier i+1).
 *
 * The pipeline calls onEnter when a fragment enters the edge's source
 * tier, onHit on every lookup hit there (only when observesHits()),
 * and admitOnEviction when the source tier evicts the fragment for
 * capacity. Policies keep their per-fragment state inside the
 * Fragment itself (accessCount, lastAccess) so fragments carry it
 * through relocation for free.
 */
class PromotionPolicy
{
  public:
    virtual ~PromotionPolicy() = default;

    PromotionPolicy(const PromotionPolicy &) = delete;
    PromotionPolicy &operator=(const PromotionPolicy &) = delete;

    /** @return short policy name, e.g. "threshold". */
    virtual const char *name() const = 0;

    /** @p frag entered the edge's source tier (fresh insert or
     *  promotion from below). */
    virtual void onEnter(Fragment &frag, TimeUs now)
    {
        (void)frag;
        (void)now;
    }

    /** A lookup hit @p frag in the source tier. @return true to
     *  upgrade it into the next tier immediately (§5.3's eager
     *  variant). Only called when observesHits(). */
    virtual bool onHit(Fragment &frag, TimeUs now)
    {
        (void)frag;
        (void)now;
        return false;
    }

    /** The source tier evicted @p frag for capacity. @return true to
     *  advance it into the next tier, false to delete it (a
     *  probation-style rejection). */
    virtual bool admitOnEviction(Fragment &frag, TimeUs now) = 0;

    /** Hot-path hint: skip the virtual onHit call on edges whose
     *  policy ignores hits. */
    bool observesHits() const { return observesHits_; }

    /** Hot-path hint: skip the virtual onEnter call on edges whose
     *  policy keeps no per-fragment entry state. */
    bool observesEntry() const { return observesEntry_; }

  protected:
    PromotionPolicy(bool observes_hits, bool observes_entry)
        : observesHits_(observes_hits), observesEntry_(observes_entry)
    {
    }

  private:
    bool observesHits_;
    bool observesEntry_;
};

/** Every capacity victim advances (Figure 8's nursery -> probation
 *  edge: eviction *is* the promotion). */
class AlwaysPromotePolicy : public PromotionPolicy
{
  public:
    AlwaysPromotePolicy() : PromotionPolicy(false, false) {}
    const char *name() const override { return "always-promote"; }
    bool admitOnEviction(Fragment &, TimeUs) override { return true; }
};

/** Every capacity victim is deleted — the edge acts as a hard cutoff
 *  (useful to model a tier whose contents never graduate). */
class AlwaysDeletePolicy : public PromotionPolicy
{
  public:
    AlwaysDeletePolicy() : PromotionPolicy(false, false) {}
    const char *name() const override { return "always-delete"; }
    bool admitOnEviction(Fragment &, TimeUs) override { return false; }
};

/**
 * The paper's probation counter (§5.2/§5.3): count hits in the source
 * tier; a victim advances iff its count reached the threshold. With
 * eager set, *reaching* the threshold on a hit upgrades immediately.
 */
class ThresholdPolicy : public PromotionPolicy
{
  public:
    explicit ThresholdPolicy(std::uint32_t threshold,
                             bool eager = false)
        : PromotionPolicy(true, true), threshold_(threshold),
          eager_(eager)
    {
    }

    const char *name() const override { return "threshold"; }

    void onEnter(Fragment &frag, TimeUs) override
    {
        frag.accessCount = 0;
    }

    bool onHit(Fragment &frag, TimeUs) override
    {
        ++frag.accessCount;
        return eager_ && frag.accessCount >= threshold_;
    }

    bool admitOnEviction(Fragment &frag, TimeUs) override
    {
        return frag.accessCount >= threshold_;
    }

    std::uint32_t threshold() const { return threshold_; }
    bool eager() const { return eager_; }

  private:
    std::uint32_t threshold_;
    bool eager_;
};

/**
 * TRRIP-style temperature policy: the access counter is a temperature
 * that cools with virtual time. Every halfLife microseconds without
 * an access halves the counter, so a burst of hits long ago no longer
 * earns promotion — re-reference *recency* matters, not lifetime hit
 * count. Decay happens lazily on the hit and eviction paths using the
 * fragment's lastAccess clock.
 */
class TemperaturePolicy : public PromotionPolicy
{
  public:
    TemperaturePolicy(std::uint32_t threshold, TimeUs half_life,
                      bool eager = false);

    const char *name() const override { return "temperature"; }
    void onEnter(Fragment &frag, TimeUs now) override;
    bool onHit(Fragment &frag, TimeUs now) override;
    bool admitOnEviction(Fragment &frag, TimeUs now) override;

    std::uint32_t threshold() const { return threshold_; }
    TimeUs halfLife() const { return halfLife_; }

  private:
    void decay(Fragment &frag, TimeUs now) const;

    std::uint32_t threshold_;
    TimeUs halfLife_;
    bool eager_;
};

/** Constructor bundle: built in one place so adapters can validate
 *  their legacy configs (with the legacy fatal messages) before any
 *  pipeline part is constructed. */
struct TierPipelineInit
{
    std::string name;
    std::vector<TierSpec> tiers;
    std::vector<std::unique_ptr<PromotionPolicy>> edges;
};

/**
 * The global code cache manager (§5): an ordered pipeline of local
 * caches.
 *
 * Fresh inserts land in tier 0; capacity victims of tier i are either
 * advanced into tier i+1 or deleted per the edge's PromotionPolicy;
 * victims of the last tier are deleted. Inserting into a tier may
 * evict victims there, which cascade further (Figure 8).
 *
 * The driver protocol mirrors a dynamic optimizer: on a lookup miss
 * the caller regenerates the trace (paying the Table 2 costs) and
 * then calls insert(). Every cache transition is reported to an
 * optional CacheEventListener, which is how the cost model observes
 * evictions and promotions without coupling the cache code to it.
 */
class TierPipeline
{
  public:
    explicit TierPipeline(TierPipelineInit init);

    // Virtual because tests own adapters via unique_ptr<TierPipeline>.
    virtual ~TierPipeline() = default;

    TierPipeline(const TierPipeline &) = delete;
    TierPipeline &operator=(const TierPipeline &) = delete;

    /** Human-readable configuration name for reports. */
    std::string name() const { return name_; }

    /**
     * Look up trace @p id at virtual time @p now.
     * @return true on hit. On miss the caller must regenerate the
     *         trace and call insert().
     */
    bool lookup(TraceId id, TimeUs now);

    /** Insert a newly generated trace. Must not be resident.
     *  @return false when placement failed (trace runs uncached). */
    bool insert(TraceId id, std::uint32_t size_bytes, ModuleId module,
                TimeUs now);

    /** Program-forced eviction of every trace tagged @p module. */
    void invalidateModule(ModuleId module, TimeUs now);

    /** Mark/unmark @p id undeletable.
     *  @return false when not resident. */
    bool setPinned(TraceId id, bool pinned);

    /** @return true when @p id is resident in any cache. */
    bool contains(TraceId id) const;

    /** Sum of all local cache capacities in bytes. */
    std::uint64_t totalCapacity() const;

    /** Sum of bytes resident across all local caches. */
    std::uint64_t usedBytes() const;

    const ManagerStats &stats() const { return stats_; }

    /** Attach @p listener (not owned; nullptr detaches). */
    void setListener(CacheEventListener *listener)
    {
        listener_ = listener;
    }

    /** Declare that every trace id lies in [0, @p id_bound) (a
     *  CompiledLog replay) and switch every index to dense storage.
     *  Call before the first insert; sparse ids work without it. */
    void prepareDenseIds(std::uint64_t id_bound);

    // --- introspection (analysis passes, tests, tools) ---

    std::size_t tierCount() const { return tiers_.size(); }
    const TierSpec &tierSpec(std::size_t tier) const
    {
        return specs_[tier];
    }
    const LocalCache &tierCache(std::size_t tier) const
    {
        return *tiers_[tier];
    }
    const GenerationStats &tierStats(std::size_t tier) const
    {
        return tierStats_[tier];
    }
    /** Generation label of @p tier (see tierLabelFor). */
    Generation tierLabel(std::size_t tier) const
    {
        return labels_[tier];
    }
    /** The edge policy out of @p tier (tier < tierCount() - 1). */
    const PromotionPolicy &edgePolicy(std::size_t tier) const
    {
        return *edges_[tier];
    }

    /** Which tier currently holds @p id; panics when absent. */
    std::size_t tierOf(TraceId id) const;

    /** Trace -> tier residency index (introspection for the static
     *  checker, src/analysis). Single-tier pipelines keep no index —
     *  the tier is always 0 — so this is empty then. */
    const TraceIndex<TierId> &residencyIndex() const { return where_; }

    /** Internal consistency check (test support): the index and the
     *  local caches must agree. Panics on violation. */
    void validate() const;

    // --- cross-process shared tier (shared_store.h) ---
    //
    // A mounted SharedCodeStore acts as one extra read-mostly tier
    // behind the private pipeline, shared with every other process
    // that mounted the same store. The pipeline probes it on a
    // private miss (a hit is reported as Generation::Shared), offers
    // its last-tier capacity victims to it (publish = the ShareJIT
    // promotion into shared memory), and forwards module
    // invalidations by uid so an unmap in this process drops the
    // module fleet-wide. Sharing off (no mount) leaves every code
    // path and event stream bit-identical to the unmounted pipeline.

    /** This process's view of its mounted shared tier. */
    struct SharedTierStats
    {
        std::uint64_t probes = 0;
        std::uint64_t hits = 0;
        std::uint64_t publishes = 0;
        std::uint64_t publishedInserts = 0;  ///< first copy fleet-wide
        std::uint64_t publishedAttaches = 0; ///< deduplicated
        std::uint64_t publishedDuplicates = 0;
        std::uint64_t publishedRejects = 0;
        std::uint64_t invalidationsForwarded = 0;
    };

    /**
     * Mount @p store as the shared tier, acting as process
     * @p process (the store's attach-mask index; unique per mounted
     * pipeline). Requires an empty pipeline; mutually exclusive with
     * enableFastReplay (the sidecar miss path would bypass the
     * probe).
     */
    void mountSharedStore(SharedCodeStore *store, unsigned process);

    bool sharedStoreMounted() const { return sharedStore_ != nullptr; }

    /** The mounted store (nullptr when sharing is off). */
    const SharedCodeStore *sharedStore() const { return sharedStore_; }

    /** This pipeline's attach-mask index in the mounted store. */
    unsigned sharedProcessIndex() const { return sharedProcess_; }

    /**
     * Register the process-independent uid behind local module id
     * @p module, so invalidateModule(@p module) can forward the unmap
     * to the mounted store. Unregistered modules invalidate only the
     * private tiers (anonymous/private code never reaches the store
     * anyway — publish drops fragments whose id carries no uid).
     */
    void setSharedModuleUid(ModuleId module, ModuleUid uid);

    /**
     * Install a dense-id -> canonical-key translation for the shared
     * tier. Replay feeds the pipeline dense per-log ids, which are
     * meaningless to other processes; the table (one CompiledLog's
     * originalIds(), which must outlive the pipeline) maps them back
     * to canonical (module uid, offset) keys before any probe or
     * publish. Without a table, ids are taken as already canonical
     * (the live-runtime case). nullptr clears.
     */
    void setSharedKeyTable(const TraceId *keys, std::uint64_t count)
    {
        sharedKeys_ = keys;
        sharedKeyCount_ = keys == nullptr ? 0 : count;
    }

    /** The shared-store key this pipeline uses for trace @p id. */
    TraceId sharedKeyOf(TraceId id) const
    {
        return sharedKeys_ != nullptr && id < sharedKeyCount_
                   ? sharedKeys_[id]
                   : id;
    }

    const SharedTierStats &sharedTierStats() const
    {
        return sharedStats_;
    }

    // --- dense fast-replay hit path (sim::BatchedReplay) ---
    //
    // A replay hit normally costs two index probes (residency map +
    // local-cache find), a fragment-line read-modify-write, and up to
    // three virtual calls. When every tier's local policy ignores
    // touches, every hit-observing edge is a plain non-eager
    // ThresholdPolicy (a bare counter bump), and the listener declines
    // hit/miss events, all a hit *observably* does is increment one
    // counter — so the pipeline can keep a dense per-trace sidecar of
    // {pending counter delta, tier + 1} slots and serve the hit from a
    // single cache line with no virtual dispatch. Deltas are folded
    // back into the authoritative Fragment::accessCount at every
    // residency transition (eviction, promotion, unmap) — i.e. before
    // any policy or listener can read the count — and in bulk by
    // flushFastCounts() before external inspection, so every decision
    // and every end state is bit-identical to the slow path.

    /** One sidecar slot: pending accessCount delta plus residency
     *  (0 = absent, else tier + 1). Sized to one aligned 8-byte load
     *  so a fast hit touches a single cache line. */
    struct HotSlot
    {
        std::uint32_t delta = 0;
        std::uint8_t tierPlusOne = 0;
    };

    /**
     * Enable the fast path for dense ids in [0, @p id_bound).
     * Requires an empty pipeline. @return false (leaving the pipeline
     * untouched) when the configuration is ineligible: a
     * touch-observing local policy (LRU/RRIP), an eager or
     * temperature edge, a listener that wants hit/miss events, or a
     * mounted shared store (whose probe lives on the miss path the
     * sidecar skips).
     */
    bool enableFastReplay(std::uint64_t id_bound);

    bool fastReplayEnabled() const { return !hot_.empty(); }

    /** Sidecar slot of dense id @p id (introspection for the temporal
     *  checker's reconciliation pass): tierPlusOne is 0 when the
     *  sidecar believes @p id absent. Only legal after
     *  enableFastReplay() accepted and for @p id inside its bound. */
    HotSlot fastSlotOf(TraceId id) const { return hot_[id]; }

    /** Fast hit probe: @return 0 when @p id is absent (caller runs
     *  the regular miss path), else the residency tier + 1. Counts
     *  the hit for the tier's out-edge threshold when it observes
     *  hits. Only legal after enableFastReplay() returned true. */
    std::uint8_t fastProbe(TraceId id)
    {
        HotSlot &slot = hot_[id];
        const std::uint8_t t1 = slot.tierPlusOne;
        if ((countMask_ >> t1 & 1u) != 0) {
            ++slot.delta;
        }
        return t1;
    }

    /** Prefetch the sidecar slot of @p id. The sidecar of a large
     *  log outgrows L1/L2, so a replay kernel that knows upcoming
     *  dense ids can hide the probe's cache miss by prefetching a
     *  few events ahead. Only legal after enableFastReplay(). */
    void fastPrefetch(TraceId id) const
    {
        __builtin_prefetch(hot_.data() + id);
    }

    /** Fold a chunk's worth of fast-path lookups into the manager
     *  stats (@p tier_hits holds per-tier hit tallies). */
    void noteFastLookups(std::uint64_t lookups, std::uint64_t misses,
                         const std::uint64_t *tier_hits)
    {
        stats_.lookups += lookups;
        stats_.hits += lookups - misses;
        stats_.misses += misses;
        for (std::size_t i = 0; i < tiers_.size(); ++i) {
            tierStats_[i].hits += tier_hits[i];
        }
    }

    /** Fold every pending fast-path counter delta into its resident
     *  Fragment. Call before any external fragment inspection (end of
     *  replay, checkpoint hooks). */
    void flushFastCounts();

  private:
    bool hasEdgeOut(TierId tier) const
    {
        return tier + 1u < tiers_.size();
    }

    /** Move @p frag from @p from into the next tier (promotion or
     *  eager upgrade); the fragment is already removed from its old
     *  tier. Cascades the destination tier's victims. */
    void advance(TierId from, Fragment frag, TimeUs now);

    /** Handle a fragment evicted from @p tier for capacity. */
    void cascadeVictim(TierId tier, Fragment victim, TimeUs now);

    /** Probe the mounted shared store on a private miss. @return true
     *  on a shared hit (already counted and reported). Only called
     *  with sharedStore_ mounted. */
    bool sharedProbe(TraceId id, TimeUs now);

    /** Destroy @p frag (it left the pipeline). */
    void destroy(const Fragment &frag, TierId tier, EvictReason reason,
                 TimeUs now);

    // Sidecar maintenance (no-ops while the fast path is disabled).
    // Every copy that leaves a local cache must pull its pending
    // delta before any policy or listener reads its access count.

    void syncFastSlot(Fragment &frag)
    {
        if (hot_.empty()) {
            return;
        }
        HotSlot &slot = hot_[frag.id];
        frag.accessCount += slot.delta;
        slot = HotSlot{};
    }

    void setFastSlot(TraceId id, TierId tier)
    {
        if (!hot_.empty()) {
            hot_[id] =
                HotSlot{0, static_cast<std::uint8_t>(tier + 1)};
        }
    }

    void clearFastSlot(TraceId id)
    {
        if (!hot_.empty()) {
            hot_[id] = HotSlot{};
        }
    }

    CacheEventListener *listener_ = nullptr;
    ManagerStats stats_;
    std::string name_;
    std::vector<TierSpec> specs_;
    std::vector<std::unique_ptr<LocalCache>> tiers_;
    std::vector<std::unique_ptr<PromotionPolicy>> edges_;
    std::vector<GenerationStats> tierStats_;
    std::vector<Generation> labels_;
    TraceIndex<TierId> where_;

    // Hot-path flattening: raw tier/edge pointers in fixed arrays
    // (one load instead of a vector-of-unique_ptr double hop) and the
    // edge policy flags folded into per-pipeline bitmasks, so lookup
    // and insert test one bit instead of chasing a policy object.
    // Single-tier pipelines additionally skip the residency index
    // entirely — the tier is always 0 — matching what the standalone
    // unified manager used to cost.
    std::array<LocalCache *, kMaxTiers> tierPtrs_{};
    std::array<PromotionPolicy *, kMaxTiers> edgePtrs_{};
    std::uint8_t hitObserverMask_ = 0;
    std::uint8_t entryTrackerMask_ = 0;
    bool multiTier_ = false;
    std::uint64_t usedBytes_ = 0; ///< incremental sum of tier usage

    // Fast-replay sidecar (empty unless enableFastReplay() accepted).
    // countMask_ is indexed by tierPlusOne (bit 0 never set) so the
    // probe shifts by the slot byte directly.
    std::vector<HotSlot> hot_;
    std::uint16_t countMask_ = 0;

    // Shared tier (nullptr unless mountSharedStore() was called).
    SharedCodeStore *sharedStore_ = nullptr;
    unsigned sharedProcess_ = 0;
    SharedTierStats sharedStats_;
    std::unordered_map<ModuleId, ModuleUid> sharedModuleUids_;
    const TraceId *sharedKeys_ = nullptr;
    std::uint64_t sharedKeyCount_ = 0;

    // Per-depth eviction scratch, reused across inserts so the hot
    // insert/cascade path allocates nothing after warm-up. insert()
    // owns slot 0 and advance(from, ...) owns slot from + 1, so the
    // cascade recursion (strictly increasing tier) never aliases a
    // vector that an outer frame is still iterating.
    std::array<std::vector<Fragment>, kMaxTiers> evictScratch_;
};

/** Label of tier @p tier in a pipeline of @p tier_count tiers:
 *  Unified for a single tier; otherwise Nursery first, Persistent
 *  last, Probation in the middle of a 3-tier pipeline, and
 *  Tier1..Tier6 for the middles of deeper ones. */
Generation tierLabelFor(std::size_t tier, std::size_t tier_count);

/** Value-type description of one edge policy (buildable config). */
struct EdgeSpec
{
    enum class Rule : std::uint8_t {
        AlwaysPromote,
        AlwaysDelete,
        Threshold,
        Temperature,
    };

    Rule rule = Rule::AlwaysPromote;
    std::uint32_t threshold = 1;  ///< Threshold / Temperature
    bool eager = false;           ///< Threshold / Temperature
    TimeUs halfLifeUs = 0;        ///< Temperature only

    std::unique_ptr<PromotionPolicy> make() const;
};

/**
 * Value-type description of a whole pipeline: per-tier budget
 * fractions plus the edge policies between them. The canonical way
 * sweeps, gencheck, and tests spell non-legacy topologies.
 */
struct TierTopology
{
    std::string name;               ///< report label ("4tier", ...)
    std::vector<double> fractions;  ///< per-tier share of the budget
    std::vector<EdgeSpec> edges;    ///< fractions.size() - 1 entries
    LocalPolicy policy = LocalPolicy::PseudoCircular;
    PinHandling pins = PinHandling::Sticky;

    /** Split @p total_bytes per the fractions; every tier gets at
     *  least one byte and the last tier absorbs the rounding
     *  remainder so the specs sum exactly to @p total_bytes. */
    std::vector<TierSpec> tierSpecs(std::uint64_t total_bytes) const;

    /** Build the pipeline over a @p total_bytes budget. */
    std::unique_ptr<TierPipeline> build(std::uint64_t total_bytes) const;
};

/** The built-in catalog of non-legacy topologies (2-tier, 4-tier,
 *  temperature 3-tier) used by sweeps, gencheck, and the bench. */
const std::vector<TierTopology> &namedTierTopologies();

/** @return the catalog entry named @p name, or nullptr. */
const TierTopology *findTierTopology(std::string_view name);

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_TIER_PIPELINE_H
