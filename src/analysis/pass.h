/**
 * @file
 * Pass framework of the gencheck static analyzer.
 *
 * An AnalysisInput bundles (optional) views of one system under
 * analysis: the guest program, the runtime that executed it, the cache
 * manager (a cache::TierPipeline), and the trace linker. Each Pass
 * inspects whatever subset it understands and reports findings through
 * the shared DiagnosticEngine; a pass whose subject is absent from the
 * input is a silent no-op, so the same driver serves whole-system
 * checks (CLI), simulator-only checks (manager alone), and
 * phase-boundary checks.
 *
 * Passes are split into *cheap* ones — linear in live cache/link state
 * and safe to run at every simulator phase boundary under
 * GENCACHE_CHECK=1 — and whole-program ones (CFG reachability), which
 * gencheck runs once per workload.
 */

#ifndef GENCACHE_ANALYSIS_PASS_H
#define GENCACHE_ANALYSIS_PASS_H

#include <memory>
#include <vector>

#include "analysis/diagnostics.h"

namespace gencache::cache {
class SharedCodeStore;
class TierPipeline;
} // namespace gencache::cache

namespace gencache::guest {
class GuestProgram;
} // namespace gencache::guest

namespace gencache::runtime {
class Runtime;
class TraceLinker;
} // namespace gencache::runtime

namespace gencache::analysis {

/** Everything a pass may look at; null fields are simply skipped. */
struct AnalysisInput
{
    const guest::GuestProgram *program = nullptr;
    const runtime::Runtime *runtime = nullptr;
    const cache::TierPipeline *manager = nullptr;
    const runtime::TraceLinker *linker = nullptr;

    /** The cross-process shared tier of a fleet run, checked by the
     *  shr-* passes. Must be quiescent (no concurrent mutators). */
    const cache::SharedCodeStore *sharedStore = nullptr;
    /** Processes in the fleet that fed sharedStore; bounds the attach
     *  masks. 0 falls back to the store's own process limit. */
    unsigned fleetProcesses = 0;

    /** Input over a finished (or paused) live runtime. */
    static AnalysisInput forRuntime(const guest::GuestProgram &program,
                                    const runtime::Runtime &runtime);

    /** Input over a trace-driven simulation's cache manager. */
    static AnalysisInput forManager(const cache::TierPipeline &manager);

    /** Input over a fleet's shared store alone. */
    static AnalysisInput
    forSharedStore(const cache::SharedCodeStore &store,
                   unsigned fleet_processes = 0);
};

/** One invariant-analysis pass. */
class Pass
{
  public:
    virtual ~Pass() = default;

    Pass() = default;
    Pass(const Pass &) = delete;
    Pass &operator=(const Pass &) = delete;

    /** Stable pass name, e.g. "cfg-wellformed". */
    virtual const char *name() const = 0;

    /** True when the pass is linear in live state and safe to run at
     *  every phase boundary (GENCACHE_CHECK=1). */
    virtual bool cheap() const { return true; }

    /** Inspect @p input, reporting findings to @p out. */
    virtual void run(const AnalysisInput &input,
                     DiagnosticEngine &out) const = 0;
};

/** The full pass pipeline, in execution order. */
std::vector<std::unique_ptr<Pass>> makeAllPasses();

/** Run every pass (or only the cheap ones) over @p input. The engine's
 *  current-pass label is maintained per pass. */
void runPasses(const AnalysisInput &input, DiagnosticEngine &out,
               bool cheap_only = false);

} // namespace gencache::analysis

#endif // GENCACHE_ANALYSIS_PASS_H
