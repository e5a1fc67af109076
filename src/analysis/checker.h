/**
 * @file
 * Front door of the gencheck static analyzer.
 *
 * Two ways in:
 *
 *  - Whole-workload checks: checkRuntime / checkManager run the full
 *    pass pipeline over a finished run and return the diagnostics
 *    (what the gencheck CLI prints and tests golden-match).
 *  - Phase-boundary checks: attachPhaseChecks installs a checkpoint
 *    hook on a Runtime or a one-lane sim::BatchedReplay that runs the
 *    *cheap* passes (link graph + cache state) after every module
 *    load/unload and at the end of each run, panicking on the first
 *    error; on a replay it also tees the temporal invariant engine in
 *    as the lane's probe. The hook is
 *    only installed when the GENCACHE_CHECK environment variable is
 *    1, true, on or yes (see checkingEnabled()), so instrumented
 *    tests cost nothing by default.
 */

#ifndef GENCACHE_ANALYSIS_CHECKER_H
#define GENCACHE_ANALYSIS_CHECKER_H

#include "analysis/pass.h"

namespace gencache::cache {
class TierPipeline;
} // namespace gencache::cache

namespace gencache::sim {
class BatchedReplay;
} // namespace gencache::sim

namespace gencache::analysis {

/** @return true when GENCACHE_CHECK is 1, true, on or yes, in any
 *  case. Unset, empty, 0, false, off and no leave checking off; any
 *  other value warns, naming it, and leaves checking off. */
bool checkingEnabled();

/** Run every pass over a finished runtime and its program. */
DiagnosticEngine checkRuntime(const guest::GuestProgram &program,
                              const runtime::Runtime &runtime);

/** Run every applicable pass over a cache manager alone. */
DiagnosticEngine checkManager(const cache::CacheManager &manager);

/**
 * Install the GENCACHE_CHECK phase-boundary hook on @p runtime. Cheap
 * passes run at every checkpoint; any error-severity finding panics
 * with the full text report.
 * @return true when the hook was installed (checking is enabled).
 */
bool attachPhaseChecks(runtime::Runtime &runtime);

/**
 * Register @p pipeline as a lane of the one-lane replay @p replay.
 * When checking is enabled, the lane carries a TemporalChecker in
 * enforce mode as its probe, and @p replay's checkpoint hook runs the
 * cheap passes and the checker's cross-checks at every module event
 * and at the end of the run, panicking on the first error; without
 * checking the lane is plain. Call before any other lane is added.
 * @return true when the checks were installed.
 */
bool attachPhaseChecks(sim::BatchedReplay &replay,
                       cache::TierPipeline &pipeline);

} // namespace gencache::analysis

#endif // GENCACHE_ANALYSIS_CHECKER_H
