#include "analysis/temporal_passes.h"

#include "sim/batched_replay.h"
#include "support/format.h"
#include "support/logging.h"

namespace gencache::analysis {

int
generationRank(cache::Generation gen)
{
    using cache::Generation;
    switch (gen) {
      case Generation::Unified: return 0;
      case Generation::Nursery: return 0;
      case Generation::Probation: return 1;
      case Generation::Tier1: return 1;
      case Generation::Tier2: return 2;
      case Generation::Tier3: return 3;
      case Generation::Tier4: return 4;
      case Generation::Tier5: return 5;
      case Generation::Tier6: return 6;
      case Generation::Persistent: return 7;
      case Generation::Shared: return 8;
    }
    GENCACHE_PANIC("unknown generation {}", static_cast<int>(gen));
}

TemporalChecker::TemporalChecker(DiagnosticEngine &out,
                                 TemporalOptions options)
    : cache::CacheEventListener(options.observeHitsMisses,
                                options.observeHitsMisses),
      out_(out), options_(options)
{
}

void
TemporalChecker::bindSubject(const cache::TierPipeline *pipeline,
                             const std::vector<cache::TraceId> *original_ids)
{
    subject_ = pipeline;
    originalIds_ = pipeline == nullptr ? nullptr : original_ids;
}

cache::TraceId
TemporalChecker::shownId(cache::TraceId id) const
{
    return originalIds_ != nullptr && id < originalIds_->size()
               ? (*originalIds_)[id]
               : id;
}

std::string
TemporalChecker::traceLocation(cache::TraceId id) const
{
    return format("trace {}", shownId(id));
}

int
TemporalChecker::tierIndexOf(cache::Generation gen) const
{
    if (subject_ == nullptr) {
        return -1;
    }
    for (std::size_t i = 0; i < subject_->tierCount(); ++i) {
        if (subject_->tierLabel(i) == gen) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

void
TemporalChecker::report(std::string_view check_id, std::string location,
                        std::string message)
{
    std::size_t &count = reported_[check_id];
    ++count;
    if (options_.maxPerCheck != 0 && count > options_.maxPerCheck) {
        return; // capped: counted but not materialized
    }
    out_.setCurrentPass("temporal");
    out_.report(Severity::Error, std::string(check_id),
                std::move(location), std::move(message));
    if (options_.enforce) {
        GENCACHE_PANIC("temporal invariant violated at event {}:\n{}",
                       events_, out_.textReport());
    }
}

void
TemporalChecker::noteEvent(TimeUs now)
{
    ++events_;
    if (sawEvent_ && now < lastTime_) {
        report("tmp-time-regression", format("event {}", events_),
               format("timestamp {} after {}", now, lastTime_));
    }
    sawEvent_ = true;
    if (now > lastTime_) {
        lastTime_ = now;
    }
    // Unmap evictions must be claimed by an onModuleUnload marker
    // within the window. Only armed once markers are known to be in
    // use (a bound subject always emits them) so marker-less legacy
    // streams don't false-positive.
    if ((subject_ != nullptr || sawUnloadMarker_) &&
        !pendingUnloads_.empty()) {
        for (auto it = pendingUnloads_.begin();
             it != pendingUnloads_.end();) {
            if (events_ - it->second.lastEvent >
                options_.unloadWindowEvents) {
                report("tmp-unload-window",
                       format("module {}", it->first),
                       format("{} unmap eviction(s) not claimed by a "
                              "module-unload marker within {} events",
                              it->second.evictions,
                              options_.unloadWindowEvents));
                it = pendingUnloads_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
TemporalChecker::expectNoPendingPromotion(const char *context)
{
    if (!pendingPromotion_.active) {
        return;
    }
    report("tmp-promote-protocol",
           traceLocation(pendingPromotion_.id),
           format("PromotionMove eviction from {} not followed by its "
                  "onPromote (next event: {})",
                  cache::generationName(pendingPromotion_.from),
                  context));
    pendingPromotion_.active = false;
}

void
TemporalChecker::checkSidecar(cache::TraceId id, cache::Generation gen,
                              bool expect_resident, const char *context)
{
    if (subject_ == nullptr || !subject_->fastReplayEnabled()) {
        return;
    }
    const int tier = expect_resident ? tierIndexOf(gen) : 0;
    if (expect_resident && tier < 0) {
        return; // foreign label already diagnosed elsewhere
    }
    const std::uint8_t want =
        expect_resident ? static_cast<std::uint8_t>(tier + 1) : 0;
    const cache::TierPipeline::HotSlot slot = subject_->fastSlotOf(id);
    if (slot.tierPlusOne != want) {
        report("tmp-sidecar-desync", traceLocation(id),
               format("hot slot holds tier+1 {} but {} implies {} "
                      "(pending delta {})",
                      slot.tierPlusOne, context, want, slot.delta));
    }
}

void
TemporalChecker::onMiss(cache::TraceId id, TimeUs now)
{
    noteEvent(now);
    expectNoPendingPromotion("miss");
    ++misses_;
    if (resident_.find(id) != resident_.end()) {
        report("tmp-miss-resident", traceLocation(id),
               format("miss reported while resident in {}",
                      cache::generationName(resident_[id].gen)));
    }
}

void
TemporalChecker::onHit(cache::TraceId id, cache::Generation gen,
                       TimeUs now)
{
    noteEvent(now);
    expectNoPendingPromotion("hit");
    flow_[gen].hits += 1;
    auto it = resident_.find(id);
    if (it == resident_.end()) {
        report("tmp-use-after-evict", traceLocation(id),
               format("hit in {} but the trace is not resident",
                      cache::generationName(gen)));
        return;
    }
    if (it->second.gen != gen) {
        report("tmp-hit-tier-mismatch", traceLocation(id),
               format("hit names {} but the trace resides in {}",
                      cache::generationName(gen),
                      cache::generationName(it->second.gen)));
    }
}

void
TemporalChecker::onInsert(const cache::Fragment &frag,
                          cache::Generation gen, TimeUs now)
{
    noteEvent(now);
    expectNoPendingPromotion("insert");
    auto it = resident_.find(frag.id);
    if (it != resident_.end()) {
        report("tmp-double-residency", traceLocation(frag.id),
               format("inserted into {} while already resident in {}",
                      cache::generationName(gen),
                      cache::generationName(it->second.gen)));
    }
    if (subject_ != nullptr) {
        if (tierIndexOf(gen) != 0) {
            report("tmp-insert-tier", traceLocation(frag.id),
                   format("fresh insert into {} but the pipeline's "
                          "entry tier is {}",
                          cache::generationName(gen),
                          cache::generationName(subject_->tierLabel(0))));
        }
    } else if (!sawInsert_) {
        sawInsert_ = true;
        entryGen_ = gen;
    } else if (gen != entryGen_) {
        report("tmp-insert-tier", traceLocation(frag.id),
               format("fresh insert into {} but earlier inserts "
                      "entered at {}",
                      cache::generationName(gen),
                      cache::generationName(entryGen_)));
    }
    resident_[frag.id] = TraceState{gen, frag.module};
    flow_[gen].inserts += 1;
    checkSidecar(frag.id, gen, true, "insert");
}

void
TemporalChecker::onEvict(const cache::Fragment &frag,
                         cache::Generation gen,
                         cache::EvictReason reason, TimeUs now)
{
    noteEvent(now);
    expectNoPendingPromotion("evict");
    auto it = resident_.find(frag.id);
    if (it == resident_.end()) {
        report("tmp-evict-absent", traceLocation(frag.id),
               format("evicted from {} ({}) but the trace is not "
                      "resident",
                      cache::generationName(gen),
                      cache::evictReasonName(reason)));
        return;
    }
    if (it->second.gen != gen) {
        report("tmp-evict-tier-mismatch", traceLocation(frag.id),
               format("evicted from {} ({}) but the trace resides "
                      "in {}",
                      cache::generationName(gen),
                      cache::evictReasonName(reason),
                      cache::generationName(it->second.gen)));
    }
    if (reason == cache::EvictReason::PromotionMove) {
        // The matching onPromote must be the very next event; the
        // residency moves there (the pipeline has already placed the
        // fragment in the destination tier when this event fires).
        pendingPromotion_ = PendingPromotion{frag.id, gen, true};
        return;
    }
    if (reason == cache::EvictReason::Unmap) {
        flow_[gen].unmapDeletions += 1;
        UnloadWindow &window = pendingUnloads_[frag.module];
        if (window.evictions == 0) {
            window.firstEvent = events_;
        }
        window.lastEvent = events_;
        window.evictions += 1;
    } else {
        flow_[gen].deletions += 1;
    }
    resident_.erase(it);
    checkSidecar(frag.id, gen, false, "evict");
}

void
TemporalChecker::onPromote(const cache::Fragment &frag,
                           cache::Generation from, cache::Generation to,
                           TimeUs now)
{
    noteEvent(now);
    if (!pendingPromotion_.active || pendingPromotion_.id != frag.id ||
        pendingPromotion_.from != from) {
        report("tmp-promote-protocol", traceLocation(frag.id),
               pendingPromotion_.active
                   ? format("onPromote {} -> {} does not match the "
                            "pending PromotionMove eviction of trace "
                            "{} from {}",
                            cache::generationName(from),
                            cache::generationName(to),
                            shownId(pendingPromotion_.id),
                            cache::generationName(pendingPromotion_.from))
                   : format("onPromote {} -> {} without a preceding "
                            "PromotionMove eviction",
                            cache::generationName(from),
                            cache::generationName(to)));
    }
    pendingPromotion_.active = false;

    if (subject_ != nullptr) {
        const int src = tierIndexOf(from);
        const int dst = tierIndexOf(to);
        if (src < 0 || dst < 0 || dst != src + 1) {
            report("tmp-promote-order", traceLocation(frag.id),
                   format("promotion {} -> {} is not a one-tier "
                          "advance of pipeline '{}'",
                          cache::generationName(from),
                          cache::generationName(to),
                          subject_->name()));
        }
    } else if (generationRank(to) <= generationRank(from)) {
        report("tmp-promote-order", traceLocation(frag.id),
               format("promotion {} -> {} moves against the cascade "
                      "order",
                      cache::generationName(from),
                      cache::generationName(to)));
    }

    auto it = resident_.find(frag.id);
    if (it == resident_.end()) {
        // The PromotionMove evict was missing or named an absent
        // trace; re-track so later events diagnose coherently.
        resident_[frag.id] = TraceState{to, frag.module};
    } else {
        it->second.gen = to;
    }
    flow_[from].promotionsOut += 1;
    flow_[to].promotionsIn += 1;
    checkSidecar(frag.id, to, true, "promote");
}

void
TemporalChecker::onModuleUnload(cache::ModuleId module, TimeUs now)
{
    noteEvent(now);
    expectNoPendingPromotion("module-unload");
    sawUnloadMarker_ = true;
    pendingUnloads_.erase(module);
    std::size_t leaked = 0;
    for (const auto &[id, state] : resident_) {
        if (state.module != module) {
            continue;
        }
        ++leaked;
        report("tmp-unload-incomplete", traceLocation(id),
               format("still resident in {} at the unload marker of "
                      "module {}",
                      cache::generationName(state.gen), module));
    }
    (void)leaked;
}

void
TemporalChecker::checkFlowAgainstSubject()
{
    const cache::TierPipeline &pipe = *subject_;
    const cache::ManagerStats &stats = pipe.stats();

    TierFlow total;
    for (const auto &[gen, f] : flow_) {
        (void)gen;
        total.inserts += f.inserts;
        total.hits += f.hits;
        total.promotionsIn += f.promotionsIn;
        total.promotionsOut += f.promotionsOut;
        total.deletions += f.deletions;
        total.unmapDeletions += f.unmapDeletions;
    }

    auto flow_mismatch = [&](std::string where, std::string what,
                             std::uint64_t expected,
                             std::uint64_t observed) {
        report("tmp-flow", std::move(where),
               format("{}: manager counted {} but the event stream "
                      "implies {}",
                      what, expected, observed));
    };

    if (stats.inserts != total.inserts) {
        flow_mismatch(pipe.name(), "inserts", stats.inserts,
                      total.inserts);
    }
    if (stats.promotions != total.promotionsOut ||
        total.promotionsIn != total.promotionsOut) {
        flow_mismatch(pipe.name(), "promotions", stats.promotions,
                      total.promotionsOut);
    }
    if (stats.deletions != total.deletions) {
        flow_mismatch(pipe.name(), "deletions", stats.deletions,
                      total.deletions);
    }
    if (stats.unmapDeletions != total.unmapDeletions) {
        flow_mismatch(pipe.name(), "unmap deletions",
                      stats.unmapDeletions, total.unmapDeletions);
    }
    if (options_.observeHitsMisses) {
        if (stats.hits != total.hits) {
            flow_mismatch(pipe.name(), "hits", stats.hits, total.hits);
        }
        if (stats.misses != misses_) {
            flow_mismatch(pipe.name(), "misses", stats.misses,
                          misses_);
        }
    }

    // Per-tier conservation: what entered a tier (fresh inserts at
    // the entry tier, promotions elsewhere) minus what left it
    // (deletions, unmaps, promotions out) must equal its current
    // population — and every counter must agree with the pipeline's
    // own per-tier statistics.
    for (std::size_t i = 0; i < pipe.tierCount(); ++i) {
        const cache::Generation label = pipe.tierLabel(i);
        const char *label_name = cache::generationName(label);
        const cache::GenerationStats &ts = pipe.tierStats(i);
        auto it = flow_.find(label);
        const TierFlow f = it == flow_.end() ? TierFlow{} : it->second;

        if (ts.promotionsIn != f.promotionsIn) {
            flow_mismatch(label_name, "promotions in",
                          ts.promotionsIn, f.promotionsIn);
        }
        if (ts.promotionsOut != f.promotionsOut) {
            flow_mismatch(label_name, "promotions out",
                          ts.promotionsOut, f.promotionsOut);
        }
        if (ts.deletions != f.deletions + f.unmapDeletions) {
            flow_mismatch(label_name, "deletions", ts.deletions,
                          f.deletions + f.unmapDeletions);
        }
        if (options_.observeHitsMisses && ts.hits != f.hits) {
            flow_mismatch(label_name, "hits", ts.hits, f.hits);
        }

        const std::uint64_t entered = f.inserts + f.promotionsIn;
        const std::uint64_t left =
            f.deletions + f.unmapDeletions + f.promotionsOut;
        std::uint64_t tracked = 0;
        for (const auto &[id, state] : resident_) {
            (void)id;
            if (state.gen == label) {
                ++tracked;
            }
        }
        if (entered < left || entered - left != tracked ||
            tracked != pipe.tierCache(i).fragmentCount()) {
            report("tmp-flow", label_name,
                   format("conservation broken: {} entered, {} left, "
                          "{} tracked resident, {} actually resident",
                          entered, left, tracked,
                          pipe.tierCache(i).fragmentCount()));
        }
    }
}

void
TemporalChecker::checkResidencyAgainstSubject()
{
    const cache::TierPipeline &pipe = *subject_;
    for (const auto &[id, state] : resident_) {
        if (!pipe.contains(id)) {
            report("tmp-leak", traceLocation(id),
                   format("event stream left it resident in {} but "
                          "the pipeline no longer holds it",
                          cache::generationName(state.gen)));
            continue;
        }
        const std::size_t tier = pipe.tierOf(id);
        if (pipe.tierLabel(tier) != state.gen) {
            report("tmp-leak", traceLocation(id),
                   format("event stream places it in {} but the "
                          "pipeline holds it in {}",
                          cache::generationName(state.gen),
                          cache::generationName(pipe.tierLabel(tier))));
        }
    }
    for (std::size_t i = 0; i < pipe.tierCount(); ++i) {
        pipe.tierCache(i).forEach([&](const cache::Fragment &frag) {
            if (resident_.find(frag.id) == resident_.end()) {
                report("tmp-leak", traceLocation(frag.id),
                       format("resident in {} but the event stream "
                              "never saw it enter",
                              cache::generationName(pipe.tierLabel(i))));
            }
        });
    }
}

void
TemporalChecker::checkpoint()
{
    if (pendingPromotion_.active) {
        // A checkpoint can only run at a quiescent event boundary;
        // half a promotion pair means the stream was cut mid-pair.
        expectNoPendingPromotion("checkpoint");
    }
    if (subject_ == nullptr) {
        return;
    }
    checkFlowAgainstSubject();
    checkResidencyAgainstSubject();
}

void
TemporalChecker::finish()
{
    checkpoint();
    if (subject_ != nullptr || sawUnloadMarker_) {
        for (const auto &[module, window] : pendingUnloads_) {
            report("tmp-unload-window", format("module {}", module),
                   format("{} unmap eviction(s) never claimed by a "
                          "module-unload marker",
                          window.evictions));
        }
        pendingUnloads_.clear();
    }
}

std::uint64_t
runTemporalReplay(const tracelog::AccessLog &log,
                  cache::CacheManager &manager, DiagnosticEngine &out,
                  TemporalOptions options)
{
    auto *pipeline = dynamic_cast<cache::TierPipeline *>(&manager);
    if (pipeline == nullptr) {
        GENCACHE_PANIC("runTemporalReplay needs a TierPipeline, got {}",
                       manager.name());
    }
    TemporalChecker checker(out, options);
    sim::BatchedReplay replay(log);
    checker.bindSubject(pipeline, &replay.log().originalIds());
    replay.addLane(*pipeline, &checker);
    replay.run();
    checker.finish();
    return checker.eventCount();
}

} // namespace gencache::analysis
