/**
 * @file
 * Front-end pass family: the runtime's dense dispatch and chaining
 * tables vs. the structures they are derived from.
 *
 * The front end runs on dense arrays: the AddressSpace block index
 * (guest addr -> block id -> predecoded stream), the runtime's flat
 * dispatch table (block id -> trace id), and the linker's per-trace
 * cached successor slots (direct chaining). Each is redundant with a
 * structure that stays authoritative — the module block maps, the
 * runtime's live trace set (`Runtime::traces()`), the link graph — so
 * every inconsistency is a real bug (a stale patched jump, a dispatch
 * into a dead trace, a block id resolving to the wrong code). This
 * pass re-derives each table from its source:
 *
 *  - every linked exit's cached successor slot matches what
 *    `TraceLinker::nodes()` implies (patched edge to the resident
 *    trace at that exit target, or no slot), and the cached target
 *    list matches the node's exit targets;
 *  - every dense block id round-trips through the AddressSpace index
 *    (module block -> id -> identical metadata), and the predecoded
 *    stream has the block's instruction count;
 *  - the flat dispatch table and the live trace set agree in both
 *    directions.
 *
 * Check IDs: fe-exit-shape, fe-exit-slot, fe-block-roundtrip,
 * fe-dispatch-stale, fe-dispatch-missing.
 */

#ifndef GENCACHE_ANALYSIS_FRONTEND_PASSES_H
#define GENCACHE_ANALYSIS_FRONTEND_PASSES_H

#include "analysis/pass.h"

namespace gencache::runtime {
class TraceLinker;
} // namespace gencache::runtime

namespace gencache::analysis {

/** Validates the front end's dense tables. Cheap: linear in
 *  resident traces, exits, and mapped blocks, so it runs at phase
 *  boundaries. */
class FrontendPass : public Pass
{
  public:
    const char *name() const override { return "frontend"; }
    void run(const AnalysisInput &input,
             DiagnosticEngine &out) const override;
};

/** Run only the exit-cache checks over @p linker (test support). */
void checkExitCaches(const runtime::TraceLinker &linker,
                     DiagnosticEngine &out);

} // namespace gencache::analysis

#endif // GENCACHE_ANALYSIS_FRONTEND_PASSES_H
