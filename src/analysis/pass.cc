#include "analysis/pass.h"

#include "analysis/cache_passes.h"
#include "analysis/cfg_passes.h"
#include "analysis/frontend_passes.h"
#include "analysis/link_passes.h"
#include "analysis/shared_passes.h"
#include "analysis/superblock_passes.h"
#include "runtime/runtime.h"

namespace gencache::analysis {

AnalysisInput
AnalysisInput::forRuntime(const guest::GuestProgram &program,
                          const runtime::Runtime &runtime)
{
    AnalysisInput input;
    input.program = &program;
    input.runtime = &runtime;
    input.manager = &runtime.manager();
    input.linker = &runtime.linker();
    return input;
}

AnalysisInput
AnalysisInput::forManager(const cache::TierPipeline &manager)
{
    AnalysisInput input;
    input.manager = &manager;
    return input;
}

AnalysisInput
AnalysisInput::forSharedStore(const cache::SharedCodeStore &store,
                              unsigned fleet_processes)
{
    AnalysisInput input;
    input.sharedStore = &store;
    input.fleetProcesses = fleet_processes;
    return input;
}

std::vector<std::unique_ptr<Pass>>
makeAllPasses()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(std::make_unique<CfgWellFormedPass>());
    passes.push_back(std::make_unique<CfgReachabilityPass>());
    passes.push_back(std::make_unique<SuperblockPass>());
    passes.push_back(std::make_unique<LinkGraphPass>());
    passes.push_back(std::make_unique<FrontendPass>());
    passes.push_back(std::make_unique<CacheStatePass>());
    passes.push_back(std::make_unique<SharedStorePass>());
    return passes;
}

void
runPasses(const AnalysisInput &input, DiagnosticEngine &out,
          bool cheap_only)
{
    for (const auto &pass : makeAllPasses()) {
        if (cheap_only && !pass->cheap()) {
            continue;
        }
        out.setCurrentPass(pass->name());
        pass->run(input, out);
    }
}

} // namespace gencache::analysis
