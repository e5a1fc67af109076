/**
 * @file
 * Temporal invariant engine over cache event streams (gencheck v2).
 *
 * The §8 passes validate point-in-time snapshots; a manager that
 * transiently violates a lifecycle invariant *between* snapshots
 * passes them clean. TemporalChecker closes that gap: it is a
 * CacheEventListener that consumes the manager's event stream —
 * online under GENCACHE_CHECK (attachPhaseChecks tees it in as a
 * replay lane's probe, after the lane's cost accountant) or offline
 * over a recorded gclog journal replay (gencheck --journal) — and
 * maintains a per-trace lifecycle state machine checking LTL-style
 * properties with stable `tmp-*` IDs:
 *
 *  - residency: no hit after evict, no miss while resident, no
 *    double-residency across tiers, evictions only of residents, and
 *    every event's tier must match the trace's tracked residency;
 *  - promotion protocol: an onEvict(PromotionMove) must be followed
 *    immediately by the matching onPromote (Figure 8 emits them as a
 *    pair), and promotions must climb exactly one tier per the
 *    pipeline order (generation monotonicity);
 *  - module unload completeness: after invalidateModule's
 *    onModuleUnload marker, no fragment of that module may remain
 *    resident, and every Unmap eviction must be claimed by a marker
 *    within a bounded event window;
 *  - conservation: at every checkpoint, the event-derived per-tier
 *    flow counters must reproduce the manager's own statistics
 *    (inserts = evictions + residents + unloads per tier) and the
 *    state machine's residency must equal the subject's actual
 *    residency (leak detection in both directions);
 *  - fast-replay sidecar: at every residency transition of a
 *    fast-replay pipeline the dense HotSlot must agree with the
 *    authoritative residency (delta reconciliation, §12);
 *  - time: event timestamps never regress.
 *
 * Binding a subject pipeline (bindSubject) upgrades the checker from
 * stream-local checks to full cross-validation; it requires that the
 * checker observed every event since the pipeline was empty.
 */

#ifndef GENCACHE_ANALYSIS_TEMPORAL_PASSES_H
#define GENCACHE_ANALYSIS_TEMPORAL_PASSES_H

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.h"
#include "codecache/cache_manager.h"
#include "codecache/tier_pipeline.h"

namespace gencache::tracelog {
class AccessLog;
}

namespace gencache::analysis {

/** Tuning of one TemporalChecker instance. */
struct TemporalOptions
{
    /** Register for hit/miss callbacks. Disable to stay eligible as
     *  a fast-replay listener (the blocked kernel serves hits from
     *  the sidecar and emits no per-hit events), trading the
     *  hit/miss residency checks for sidecar reconciliation. */
    bool observeHitsMisses = true;

    /** Panic (GENCACHE_PANIC) with a full report as soon as any
     *  error-severity finding lands — the GENCACHE_CHECK online
     *  mode. Off: findings accumulate in the engine (CLI mode). */
    bool enforce = false;

    /** Per-check-ID diagnostic cap; further findings of an ID are
     *  counted but not materialized (keeps corrupted-journal reports
     *  readable). 0 = unlimited. */
    std::size_t maxPerCheck = 16;

    /** Maximum number of events between an Unmap eviction and the
     *  onModuleUnload marker that claims it (tmp-unload-window).
     *  The pipeline emits the marker directly after the evictions,
     *  so any slack here only absorbs interleaved streams. */
    std::uint64_t unloadWindowEvents = 4096;
};

/**
 * Per-trace lifecycle state machine over a cache event stream.
 *
 * Attach with TierPipeline::setListener (or as the probe of a
 * sim::BatchedReplay lane, which keeps the lane's cost accountant),
 * feed it a run, then call finish(). checkpoint() runs the non-destructive
 * cross-checks alone and is safe at any event boundary (the
 * GENCACHE_CHECK phase hook calls it at module load/unload edges).
 */
class TemporalChecker : public cache::CacheEventListener
{
  public:
    explicit TemporalChecker(DiagnosticEngine &out,
                             TemporalOptions options = {});

    /** Cross-validate against @p pipeline (residency, stats
     *  conservation, sidecar slots). The checker must see every event
     *  from the pipeline's empty state on; nullptr unbinds. When the
     *  pipeline replays a CompiledLog, its events carry dense ids:
     *  pass the log's originalIds() as @p original_ids (not owned)
     *  and diagnostics quote the ids of the source log instead. */
    void bindSubject(const cache::TierPipeline *pipeline,
                     const std::vector<cache::TraceId> *original_ids =
                         nullptr);

    const cache::TierPipeline *subject() const { return subject_; }

    // --- CacheEventListener ---
    void onMiss(cache::TraceId id, TimeUs now) override;
    void onHit(cache::TraceId id, cache::Generation gen,
               TimeUs now) override;
    void onInsert(const cache::Fragment &frag, cache::Generation gen,
                  TimeUs now) override;
    void onEvict(const cache::Fragment &frag, cache::Generation gen,
                 cache::EvictReason reason, TimeUs now) override;
    void onPromote(const cache::Fragment &frag, cache::Generation from,
                   cache::Generation to, TimeUs now) override;
    void onModuleUnload(cache::ModuleId module, TimeUs now) override;

    /** Non-destructive cross-checks (flow conservation + residency
     *  agreement with the bound subject). Call at quiescent points:
     *  never between the two halves of a promotion pair. */
    void checkpoint();

    /** End-of-run: checkpoint() plus stream-final checks (dangling
     *  promotion halves, unclaimed unload windows). The checker stays
     *  attachable afterwards, but state is not reset. */
    void finish();

    /** Events observed so far (all kinds). */
    std::uint64_t eventCount() const { return events_; }

    /** Residents the state machine currently tracks. */
    std::size_t trackedResidents() const { return resident_.size(); }

  private:
    struct TraceState
    {
        cache::Generation gen = cache::Generation::Unified;
        cache::ModuleId module = cache::kNoModule;
    };

    struct TierFlow
    {
        std::uint64_t inserts = 0;
        std::uint64_t hits = 0;
        std::uint64_t promotionsIn = 0;
        std::uint64_t promotionsOut = 0;
        std::uint64_t deletions = 0;     ///< destructive non-Unmap
        std::uint64_t unmapDeletions = 0;
    };

    struct PendingPromotion
    {
        cache::TraceId id = 0;
        cache::Generation from = cache::Generation::Unified;
        bool active = false;
    };

    struct UnloadWindow
    {
        std::uint64_t firstEvent = 0; ///< index of first Unmap evict
        std::uint64_t lastEvent = 0;  ///< index of latest Unmap evict;
                                      ///< the claim window runs from
                                      ///< here so large modules don't
                                      ///< outrun it mid-invalidation
        std::uint64_t evictions = 0;
    };

    void report(std::string_view check_id, std::string location,
                std::string message);
    /** @p id as the source log spells it (see bindSubject). */
    cache::TraceId shownId(cache::TraceId id) const;
    /** "trace <id>" in the source log's ids: a finding's location. */
    std::string traceLocation(cache::TraceId id) const;
    void noteEvent(TimeUs now);
    /** tmp-promote-protocol when a PromotionMove evict was not
     *  followed immediately by its onPromote. */
    void expectNoPendingPromotion(const char *context);
    /** Pipeline tier index of @p gen under the bound subject, or -1
     *  when unbound / the label is foreign to the subject. */
    int tierIndexOf(cache::Generation gen) const;
    void checkSidecar(cache::TraceId id, cache::Generation gen,
                      bool expect_resident, const char *context);
    void checkFlowAgainstSubject();
    void checkResidencyAgainstSubject();

    DiagnosticEngine &out_;
    TemporalOptions options_;
    const cache::TierPipeline *subject_ = nullptr;
    const std::vector<cache::TraceId> *originalIds_ = nullptr;

    std::unordered_map<cache::TraceId, TraceState> resident_;
    std::map<cache::Generation, TierFlow> flow_;
    PendingPromotion pendingPromotion_;
    std::map<cache::ModuleId, UnloadWindow> pendingUnloads_;
    bool sawUnloadMarker_ = false;
    bool sawInsert_ = false;
    cache::Generation entryGen_ = cache::Generation::Unified;
    TimeUs lastTime_ = 0;
    bool sawEvent_ = false;
    std::uint64_t events_ = 0;
    std::uint64_t misses_ = 0;
    std::unordered_map<std::string_view, std::size_t> reported_;
};

/**
 * Rank of @p gen in the Figure-8 cascade order: Nursery before
 * Probation/Tier1..Tier6 before Persistent. Used for monotonicity
 * when no subject pipeline is bound (bound checkers demand exact
 * one-tier adjacency instead). Unified never promotes and ranks 0.
 */
int generationRank(cache::Generation gen);

/**
 * Offline temporal check: replay @p log against @p manager as a
 * one-lane blocked pass (sim::BatchedReplay, compiling the log window by
 * window) with a TemporalChecker bound to the pipeline and teed in as
 * the lane's probe (gencheck --journal). Findings quote the log's own
 * trace ids and land in @p out; finish() is called at the end of the
 * replay.
 *
 * @return the number of cache events the checker observed.
 */
std::uint64_t runTemporalReplay(const tracelog::AccessLog &log,
                                cache::TierPipeline &manager,
                                DiagnosticEngine &out,
                                TemporalOptions options = {});

} // namespace gencache::analysis

#endif // GENCACHE_ANALYSIS_TEMPORAL_PASSES_H
