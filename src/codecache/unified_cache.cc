#include "codecache/unified_cache.h"

#include "support/format.h"

namespace gencache::cache {

namespace {

TierPipelineInit
unifiedInit(std::uint64_t capacity, LocalPolicy policy)
{
    LocalPolicy effective =
        capacity == 0 ? LocalPolicy::Unbounded : policy;
    TierPipelineInit init;
    init.name = effective == LocalPolicy::Unbounded
                    ? "unified/unbounded"
                    : format("unified/{} ({})",
                             localPolicyName(effective),
                             humanBytes(capacity));
    init.tiers = {TierSpec{capacity, effective}};
    return init;
}

} // namespace

UnifiedCacheManager::UnifiedCacheManager(std::uint64_t capacity,
                                         LocalPolicy policy)
    : TierPipeline(unifiedInit(capacity, policy))
{
}

} // namespace gencache::cache
