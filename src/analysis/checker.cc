#include "analysis/checker.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>

#include "analysis/temporal_passes.h"
#include "runtime/runtime.h"
#include "sim/batched_replay.h"
#include "support/logging.h"

namespace gencache::analysis {
namespace {

void
enforce(const DiagnosticEngine &engine, const char *context)
{
    if (engine.errorCount() > 0) {
        GENCACHE_PANIC("GENCACHE_CHECK: invariant violation at {}\n{}",
                       context, engine.textReport());
    }
}

} // namespace

bool
checkingEnabled()
{
    const char *value = std::getenv("GENCACHE_CHECK");
    if (value == nullptr) {
        return false;
    }
    std::string v(value);
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (v == "1" || v == "true" || v == "on" || v == "yes") {
        return true;
    }
    if (!v.empty() && v != "0" && v != "false" && v != "off" &&
        v != "no") {
        warn("ignoring invalid GENCACHE_CHECK='{}' (want 1, true, on "
             "or yes, or 0, false, off or no); checking stays off",
             value);
    }
    return false;
}

DiagnosticEngine
checkRuntime(const guest::GuestProgram &program,
             const runtime::Runtime &runtime)
{
    DiagnosticEngine engine;
    runPasses(AnalysisInput::forRuntime(program, runtime), engine);
    return engine;
}

DiagnosticEngine
checkManager(const cache::TierPipeline &manager)
{
    DiagnosticEngine engine;
    runPasses(AnalysisInput::forManager(manager), engine);
    return engine;
}

bool
attachPhaseChecks(runtime::Runtime &runtime)
{
    if (!checkingEnabled()) {
        return false;
    }
    runtime.setCheckpointHook([](const runtime::Runtime &rt) {
        DiagnosticEngine engine;
        AnalysisInput input;
        input.runtime = &rt;
        input.manager = &rt.manager();
        input.linker = &rt.linker();
        runPasses(input, engine, /*cheap_only=*/true);
        enforce(engine, "runtime phase boundary");
    });
    return true;
}

bool
attachPhaseChecks(sim::BatchedReplay &replay,
                  cache::TierPipeline &pipeline)
{
    if (!checkingEnabled()) {
        replay.addLane(pipeline);
        return false;
    }
    // Beyond the snapshot passes, GENCACHE_CHECK runs the temporal
    // invariant engine online: a TemporalChecker rides the lane as its
    // probe, after the cost accountant, and panics on the first
    // violation (enforce mode). The checkpoint-hook closure owns it,
    // so it lives as long as the replay.
    TemporalOptions options;
    options.enforce = true;
    auto engine = std::make_shared<DiagnosticEngine>();
    auto temporal =
        std::make_shared<TemporalChecker>(*engine, options);
    temporal->bindSubject(&pipeline, &replay.log().originalIds());
    replay.addLane(pipeline, temporal.get());
    replay.setCheckpointHook(
        [engine, temporal](const cache::TierPipeline &manager,
                           TimeUs) {
            DiagnosticEngine snapshot;
            runPasses(AnalysisInput::forManager(manager), snapshot,
                      /*cheap_only=*/true);
            enforce(snapshot, "replay phase boundary");
            temporal->checkpoint(); // panics itself in enforce mode
        });
    return true;
}

} // namespace gencache::analysis
