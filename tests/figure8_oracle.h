/**
 * @file
 * An independent, deliberately plain model of the paper's code cache
 * hierarchy, the oracle of test_tier_oracle.cc.
 *
 * It is written from the paper and from the placement rules stated in
 * codecache/cache_region.h's header, never from the cache code: a
 * per-event loop over an AccessLog with its raw trace ids, tiers
 * kept as an ordered list or an offset map, and one loop per rule.
 *
 *  - Replay (§6): a creation inserts; an execution looks the trace up,
 *    and a miss regenerates and re-inserts it, re-applying a pin the
 *    log still holds on it. A module unload deletes the module's
 *    traces from every tier, pinned or not. A trace created again
 *    after its module unloaded is a fresh trace.
 *  - Figure 8: fresh traces enter tier 0. A capacity victim of tier i
 *    crosses the edge to tier i+1 or is deleted (a rejection) by the
 *    edge's rule; victims of the last tier are deleted. A victim that
 *    does not fit the next tier is deleted where it was. An eager
 *    threshold edge moves a trace on the hit that reaches the
 *    threshold. A threshold counts hits since the trace entered its
 *    tier. Shed pin handling clears the pin bit on every move up.
 *  - Local policies (§4): FIFO and LRU evict the oldest (least
 *    recently hit) unpinned traces until the new one fits; an
 *    unbounded cache never evicts. The pseudo-circular cache (§4.3)
 *    lays traces out at byte offsets behind one pointer. A window
 *    that meets a pinned trace restarts just past it; a window that
 *    runs off the end wastes the tail, evicts the tail's traces and
 *    continues at offset zero; a second lap fails the insert.
 *  - Pricing (§6.2, Table 2): each insert into tier 0 costs a trace
 *    generation, two context switches and a copy; each deletion an
 *    eviction; a move into the last tier a promotion, and any other
 *    move the eviction formula's link-update bookkeeping.
 *
 * Only the cost formulas (cost::CostModel) and the log types are
 * shared with the code under test.
 */

#ifndef GENCACHE_TESTS_FIGURE8_ORACLE_H
#define GENCACHE_TESTS_FIGURE8_ORACLE_H

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_model.h"
#include "sim/batched_replay.h"
#include "tracelog/event.h"

namespace gencache::oracle {

enum class Local { Fifo, Lru, Unbounded, PseudoCircular };
enum class Rule { AlwaysPromote, AlwaysDelete, Threshold };

struct TierModel
{
    std::uint64_t capacity = 0; ///< bytes; ignored when Unbounded
    Local local = Local::PseudoCircular;
    bool shedPins = false; ///< moving up clears the pin bit
};

struct EdgeModel
{
    Rule rule = Rule::AlwaysPromote;
    std::uint32_t threshold = 1;
    bool eager = false;
};

struct Topology
{
    std::vector<TierModel> tiers;
    std::vector<EdgeModel> edges; ///< edges[i] joins tier i to i+1
};

/** A resident trace. */
struct Trace
{
    std::uint64_t id = 0;
    std::uint32_t size = 0;
    std::uint32_t module = 0;
    bool pinned = false;
    std::uint32_t hits = 0; ///< since it entered its tier
};

/** One local cache. */
class Tier
{
  public:
    explicit Tier(const TierModel &model) : model_(model) {}

    std::uint64_t used() const { return used_; }

    Trace *find(std::uint64_t id)
    {
        for (Trace &t : order_) {
            if (t.id == id) {
                return &t;
            }
        }
        for (auto &[offset, t] : placed_) {
            if (t.id == id) {
                return &t;
            }
        }
        return nullptr;
    }

    /** Remove @p id, which must be resident, and return it. */
    Trace take(std::uint64_t id)
    {
        for (auto it = order_.begin(); it != order_.end(); ++it) {
            if (it->id == id) {
                return erase(it);
            }
        }
        for (auto it = placed_.begin(); it != placed_.end(); ++it) {
            if (it->second.id == id) {
                Trace t = it->second;
                used_ -= t.size;
                placed_.erase(it);
                return t;
            }
        }
        return Trace{};
    }

    /** LRU: a hit makes @p id the newest. */
    void touch(std::uint64_t id)
    {
        if (model_.local == Local::Lru) {
            Trace t = take(id);
            used_ += t.size;
            order_.push_back(t);
        }
    }

    /** Take every trace of @p module into @p out. */
    void unload(std::uint32_t module, std::vector<Trace> &out)
    {
        std::vector<std::uint64_t> ids;
        for (const Trace &t : order_) {
            if (t.module == module) {
                ids.push_back(t.id);
            }
        }
        for (const auto &[offset, t] : placed_) {
            if (t.module == module) {
                ids.push_back(t.id);
            }
        }
        for (std::uint64_t id : ids) {
            out.push_back(take(id));
        }
    }

    /** Admit @p t, appending capacity victims in eviction order.
     *  @return false, changing nothing, when it cannot be placed. */
    bool insert(const Trace &t, std::vector<Trace> &victims)
    {
        return model_.local == Local::PseudoCircular
                   ? place(t, victims)
                   : append(t, victims);
    }

  private:
    Trace erase(std::list<Trace>::iterator it)
    {
        Trace t = *it;
        used_ -= t.size;
        order_.erase(it);
        return t;
    }

    bool append(const Trace &t, std::vector<Trace> &victims)
    {
        if (model_.local != Local::Unbounded) {
            if (t.size > model_.capacity) {
                return false;
            }
            std::uint64_t freed = 0;
            std::vector<std::uint64_t> plan;
            for (const Trace &old : order_) {
                if (used_ - freed + t.size <= model_.capacity) {
                    break;
                }
                if (!old.pinned) {
                    freed += old.size;
                    plan.push_back(old.id);
                }
            }
            if (used_ - freed + t.size > model_.capacity) {
                return false;
            }
            for (std::uint64_t id : plan) {
                victims.push_back(take(id));
            }
        }
        order_.push_back(t);
        used_ += t.size;
        return true;
    }

    /** End offset of the lowest pinned trace meeting [begin, end),
     *  or 0 when none does. */
    std::uint64_t pinnedIn(std::uint64_t begin, std::uint64_t end) const
    {
        for (const auto &[offset, t] : placed_) {
            if (t.pinned && offset < end && offset + t.size > begin) {
                return offset + t.size;
            }
        }
        return 0;
    }

    /** Evict, lowest offset first, every trace at or past @p from
     *  that meets [begin, end). */
    void evictMeeting(std::uint64_t from, std::uint64_t begin,
                      std::uint64_t end, std::vector<Trace> &victims)
    {
        for (auto it = placed_.lower_bound(from); it != placed_.end();) {
            const Trace &t = it->second;
            if (it->first < end && it->first + t.size > begin) {
                victims.push_back(t);
                used_ -= t.size;
                it = placed_.erase(it);
            } else {
                ++it;
            }
        }
    }

    bool place(const Trace &t, std::vector<Trace> &victims)
    {
        const std::uint64_t capacity = model_.capacity;
        if (t.size > capacity) {
            return false;
        }
        std::uint64_t at = pointer_;
        std::uint64_t tail = 0;
        bool lapped = false;
        while (true) {
            const bool offEnd = at + t.size > capacity;
            if (offEnd && lapped) {
                return false;
            }
            const std::uint64_t blocker =
                pinnedIn(at, offEnd ? capacity : at + t.size);
            if (blocker != 0) {
                at = blocker;
                ++pinnedSkips_;
                continue;
            }
            if (!offEnd) {
                break;
            }
            tail = at;
            wrapWaste_ += capacity - at;
            at = 0;
            lapped = true;
        }
        if (lapped) {
            evictMeeting(pointer_, tail, capacity, victims);
        }
        evictMeeting(0, at, at + t.size, victims);
        placed_.emplace(at, t);
        used_ += t.size;
        pointer_ = at + t.size < capacity ? at + t.size : 0;
        return true;
    }

    TierModel model_;
    std::uint64_t used_ = 0;
    std::list<Trace> order_; ///< list policies: oldest first
    std::map<std::uint64_t, Trace> placed_; ///< by byte offset
    std::uint64_t pointer_ = 0;
    std::uint64_t wrapWaste_ = 0;
    std::uint64_t pinnedSkips_ = 0;
};

/** The hierarchy plus the per-event replay loop. */
class Figure8Model
{
  public:
    explicit Figure8Model(const Topology &topology)
        : edges_(topology.edges)
    {
        for (const TierModel &tier : topology.tiers) {
            tiers_.emplace_back(tier);
            shed_.push_back(tier.shedPins);
        }
    }

    sim::SimResult replay(const tracelog::AccessLog &log)
    {
        using tracelog::EventType;
        struct Known
        {
            std::uint32_t size = 0;
            std::uint32_t module = 0;
            bool pinWanted = false;
        };
        std::unordered_map<std::uint64_t, Known> known;
        r_.benchmark = log.benchmark();
        for (const tracelog::Event &e : log.events()) {
            switch (e.type) {
              case EventType::TraceCreate:
                known[e.trace] = Known{e.sizeBytes, e.module, false};
                ++r_.createdTraces;
                r_.createdBytes += e.sizeBytes;
                insert(Trace{e.trace, e.sizeBytes, e.module});
                notePeak();
                break;
              case EventType::TraceExec: {
                const Known &k = known.at(e.trace);
                ++r_.lookups;
                if (lookup(e.trace)) {
                    ++r_.hits;
                    break;
                }
                ++r_.misses;
                if (insert(Trace{e.trace, k.size, k.module})) {
                    ++r_.regenerations;
                    if (k.pinWanted) {
                        setPinned(e.trace, true);
                    }
                }
                notePeak();
                break;
              }
              case EventType::Pin:
              case EventType::Unpin:
                known.at(e.trace).pinWanted = e.type == EventType::Pin;
                setPinned(e.trace, e.type == EventType::Pin);
                break;
              case EventType::ModuleLoad:
                break;
              case EventType::ModuleUnload:
                unload(e.module);
                break;
            }
        }
        r_.managerStats.lookups = r_.lookups;
        r_.managerStats.hits = r_.hits;
        r_.managerStats.misses = r_.misses;
        return r_;
    }

  private:
    std::size_t last() const { return tiers_.size() - 1; }

    void notePeak()
    {
        std::uint64_t used = 0;
        for (const Tier &tier : tiers_) {
            used += tier.used();
        }
        r_.peakBytes = used > r_.peakBytes ? used : r_.peakBytes;
    }

    bool lookup(std::uint64_t id)
    {
        for (std::size_t i = 0; i < tiers_.size(); ++i) {
            Trace *t = tiers_[i].find(id);
            if (t == nullptr) {
                continue;
            }
            ++t->hits;
            tiers_[i].touch(id);
            if (i < last() && edges_[i].rule == Rule::Threshold &&
                edges_[i].eager &&
                tiers_[i].find(id)->hits >= edges_[i].threshold) {
                advance(i, tiers_[i].take(id));
            }
            return true;
        }
        return false;
    }

    bool insert(const Trace &t)
    {
        std::vector<Trace> victims;
        cache::ManagerStats &s = r_.managerStats;
        if (!tiers_[0].insert(t, victims)) {
            ++s.placementFailures;
            return false;
        }
        ++s.inserts;
        s.insertedBytes += t.size;
        r_.overhead.traceGeneration += cost_.traceGeneration(t.size);
        r_.overhead.contextSwitches += 2 * cost_.contextSwitch();
        r_.overhead.copies += cost_.copy(t.size);
        for (const Trace &victim : victims) {
            cascade(0, victim);
        }
        return true;
    }

    void cascade(std::size_t tier, const Trace &victim)
    {
        if (tier == last()) {
            destroy(victim);
            return;
        }
        const EdgeModel &edge = edges_[tier];
        if (edge.rule == Rule::AlwaysPromote ||
            (edge.rule == Rule::Threshold &&
             victim.hits >= edge.threshold)) {
            advance(tier, victim);
            return;
        }
        ++r_.managerStats.probationRejections;
        destroy(victim);
    }

    void advance(std::size_t from, Trace t)
    {
        cache::ManagerStats &s = r_.managerStats;
        if (shed_[from]) {
            t.pinned = false;
        }
        t.hits = 0;
        std::vector<Trace> victims;
        if (!tiers_[from + 1].insert(t, victims)) {
            ++s.placementFailures;
            destroy(t);
            return;
        }
        ++s.promotions;
        s.promotedBytes += t.size;
        r_.overhead.promotions += from + 1 == last()
                                      ? cost_.promotion(t.size)
                                      : cost_.eviction(t.size);
        for (const Trace &victim : victims) {
            cascade(from + 1, victim);
        }
    }

    void destroy(const Trace &t)
    {
        ++r_.managerStats.deletions;
        r_.managerStats.deletedBytes += t.size;
        r_.overhead.evictions += cost_.eviction(t.size);
    }

    void unload(std::uint32_t module)
    {
        std::vector<Trace> gone;
        for (Tier &tier : tiers_) {
            tier.unload(module, gone);
        }
        for (const Trace &t : gone) {
            ++r_.managerStats.unmapDeletions;
            r_.managerStats.unmapDeletedBytes += t.size;
            r_.overhead.evictions += cost_.eviction(t.size);
        }
    }

    void setPinned(std::uint64_t id, bool pinned)
    {
        for (Tier &tier : tiers_) {
            if (Trace *t = tier.find(id)) {
                t->pinned = pinned;
            }
        }
    }

    std::vector<Tier> tiers_;
    std::vector<bool> shed_;
    std::vector<EdgeModel> edges_;
    cost::CostModel cost_;
    sim::SimResult r_;
};

} // namespace gencache::oracle

#endif // GENCACHE_TESTS_FIGURE8_ORACLE_H
