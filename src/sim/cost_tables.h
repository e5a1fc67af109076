/**
 * @file
 * The §6.2 instruction-overhead accounting of a replay, priced from
 * per-trace tables.
 *
 * The Table 2 cost formulas include 865 * bytes^0.8 — a transcendental
 * that would otherwise be evaluated on every insert. In a
 * compiled-log replay every fragment the manager ever sees is one of
 * the log's traces, and the manager is driven with dense trace ids,
 * so all three per-byte formulas collapse into flat arrays indexed by
 * dense id, built once per CompiledLog from cost::CostModel and shared
 * read-only across every lane and configuration (the tournament
 * replays one profile's tables thousands of times). The per-event
 * values are the InstrCount results the formulas produce: the tables
 * are filled by calling them.
 *
 * TableOverheadListener is the only place the pricing rules live.
 */

#ifndef GENCACHE_SIM_COST_TABLES_H
#define GENCACHE_SIM_COST_TABLES_H

#include <vector>

#include "codecache/cache_manager.h"
#include "costmodel/cost_model.h"
#include "tracelog/compiled_log.h"

namespace gencache::sim {

/** Table 2 formulas evaluated per dense trace id. */
struct CostTables
{
    std::vector<InstrCount> generation; ///< traceGeneration(size)
    std::vector<InstrCount> eviction;   ///< eviction(size)
    std::vector<InstrCount> promotion;  ///< promotion(size) == copy
    InstrCount missSwitches = 0;        ///< 2 * contextSwitch()

    /** Evaluate @p model over every trace of @p log. */
    static CostTables build(const tracelog::CompiledLog &log,
                            const cost::CostModel &model);
};

/**
 * Cache-event listener that prices every transition with the tables,
 * mirroring §6.2's accounting:
 *
 *  - each insert into the entry tier is a trace generation plus two
 *    context switches plus one bb-to-trace copy (compulsory first
 *    generation and conflict-miss regeneration cost the same);
 *  - each deletion costs eviction(bytes);
 *  - each inter-tier move costs promotion(bytes) into the last tier
 *    and eviction(bytes) elsewhere (see onPromote).
 *
 * Fragment ids must be dense ids of the CompiledLog the tables were
 * built from. BatchedReplay installs one per lane.
 */
class TableOverheadListener : public cache::CacheEventListener
{
  public:
    explicit TableOverheadListener(const CostTables &tables)
        : cache::CacheEventListener(/*wants_hits=*/false,
                                    /*wants_misses=*/false),
          tables_(&tables)
    {
    }

    void onInsert(const cache::Fragment &frag, cache::Generation gen,
                  TimeUs now) override
    {
        (void)gen;
        (void)now;
        // Only fresh generations reach onInsert (promotion moves
        // arrive via onPromote), so every call prices a full miss
        // service.
        breakdown_.traceGeneration += tables_->generation[frag.id];
        breakdown_.contextSwitches += tables_->missSwitches;
        breakdown_.copies += tables_->promotion[frag.id];
    }

    void onEvict(const cache::Fragment &frag, cache::Generation gen,
                 cache::EvictReason reason, TimeUs now) override
    {
        (void)gen;
        (void)now;
        if (cache::isDeletion(reason)) {
            breakdown_.evictions += tables_->eviction[frag.id];
        }
    }

    void onPromote(const cache::Fragment &frag, cache::Generation from,
                   cache::Generation to, TimeUs now) override
    {
        (void)from;
        (void)now;
        // A persistent upgrade relocates the code and re-patches its
        // links (§5.4): the full Table 2 promotion cost. Nursery
        // victims transfer to the probation cache without
        // recompilation — the §5.3 design removes counters precisely
        // so this transfer stays cheap — so other moves are priced as
        // link-update bookkeeping with the eviction formula, the same
        // work a unified cache performs when it evicts the fragment.
        breakdown_.promotions += to == cache::Generation::Persistent
                                     ? tables_->promotion[frag.id]
                                     : tables_->eviction[frag.id];
    }

    const cost::OverheadBreakdown &breakdown() const
    {
        return breakdown_;
    }

  private:
    const CostTables *tables_;
    cost::OverheadBreakdown breakdown_;
};

} // namespace gencache::sim

#endif // GENCACHE_SIM_COST_TABLES_H
