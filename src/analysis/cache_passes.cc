#include "analysis/cache_passes.h"

#include <unordered_map>
#include <unordered_set>

#include "codecache/list_cache.h"
#include "codecache/pseudo_circular_cache.h"
#include "codecache/tier_pipeline.h"
#include "runtime/runtime.h"
#include "support/format.h"

namespace gencache::analysis {
namespace {

/** Pseudo-circular region invariants (§4.3). */
void
checkRegion(const cache::CacheRegion &region, const std::string &where,
            DiagnosticEngine &out)
{
    const auto &below = region.belowHalf();
    const auto &above = region.aboveHalf();
    std::uint64_t pointer = region.pointer();

    if (region.capacity() > 0 && pointer >= region.capacity()) {
        out.report(Severity::Error, "region-pointer-oob", where,
                   format("allocation pointer {} is at/past the "
                          "region capacity {}",
                          pointer, region.capacity()));
    }

    // Half membership and per-half ordering.
    for (std::size_t i = 0; i < below.size(); ++i) {
        if (below[i].addr >= pointer) {
            out.report(Severity::Error, "region-split", where,
                       format("fragment {} at offset {} sits in the "
                              "below-pointer half but is not below "
                              "the pointer ({})",
                              below[i].id, below[i].addr, pointer));
        }
        if (i > 0 && below[i - 1].addr >= below[i].addr) {
            out.report(Severity::Error, "region-unsorted", where,
                       format("below-pointer half not strictly "
                              "ascending at fragment {}",
                              below[i].id));
        }
    }
    for (std::size_t i = 0; i < above.size(); ++i) {
        if (above[i].addr < pointer) {
            out.report(Severity::Error, "region-split", where,
                       format("fragment {} at offset {} sits in the "
                              "above-pointer half but is below the "
                              "pointer ({})",
                              above[i].id, above[i].addr, pointer));
        }
        if (i > 0 && above[i - 1].addr <= above[i].addr) {
            out.report(Severity::Error, "region-unsorted", where,
                       format("above-pointer half not strictly "
                              "descending at fragment {}",
                              above[i].id));
        }
    }

    // Merge into address order (below ascending, then above reversed)
    // for extent and overlap checks, accumulating the accounting.
    std::vector<const cache::Fragment *> ordered;
    ordered.reserve(below.size() + above.size());
    for (const cache::Fragment &frag : below) {
        ordered.push_back(&frag);
    }
    for (auto it = above.rbegin(); it != above.rend(); ++it) {
        ordered.push_back(&*it);
    }
    std::uint64_t sum_bytes = 0;
    std::size_t pinned = 0;
    const cache::Fragment *prev = nullptr;
    for (const cache::Fragment *frag : ordered) {
        sum_bytes += frag->sizeBytes;
        pinned += frag->pinned ? 1 : 0;
        if (frag->addr + frag->sizeBytes > region.capacity()) {
            out.report(Severity::Error, "region-oob", where,
                       format("fragment {} extends to offset {} past "
                              "the region capacity {}",
                              frag->id, frag->addr + frag->sizeBytes,
                              region.capacity()));
        }
        if (prev != nullptr &&
            prev->addr + prev->sizeBytes > frag->addr) {
            out.report(Severity::Error, "region-overlap", where,
                       format("fragments {} and {} overlap at offset "
                              "{}",
                              prev->id, frag->id, frag->addr));
        }
        const cache::CacheRegion::AddrEntry *indexed =
            region.addrIndex().find(frag->id);
        if (indexed == nullptr) {
            out.report(Severity::Error, "region-index", where,
                       format("fragment {} is resident but missing "
                              "from the address index",
                              frag->id));
        } else if (indexed->addr != frag->addr) {
            out.report(Severity::Error, "region-index", where,
                       format("fragment {} placed at offset {} but "
                              "indexed at {}",
                              frag->id, frag->addr, indexed->addr));
        }
        prev = frag;
    }
    if (region.addrIndex().size() != ordered.size()) {
        out.report(Severity::Error, "region-index", where,
                   format("address index holds {} entries but {} "
                          "fragments are resident",
                          region.addrIndex().size(), ordered.size()));
    }
    if (sum_bytes != region.usedBytes()) {
        out.report(Severity::Error, "region-bytes", where,
                   format("resident fragments sum to {} bytes but "
                          "usedBytes reports {}",
                          sum_bytes, region.usedBytes()));
    }
    if (pinned != region.pinnedResidentCount()) {
        out.report(Severity::Error, "region-pinned-count", where,
                   format("{} pinned fragments resident but the "
                          "pinned count says {}",
                          pinned, region.pinnedResidentCount()));
    }
}

/** Slab ring + free list invariants of the list caches. */
void
checkListCache(const cache::ListCache &cache, const std::string &where,
               DiagnosticEngine &out)
{
    std::size_t slab = cache.slabSize();
    auto valid_slot = [slab](std::uint32_t n) {
        return n == cache::ListCache::kNil ||
               static_cast<std::size_t>(n) < slab;
    };

    // Walk the victim ring head -> tail, bounding the walk by the slab
    // size so a cycle is diagnosed instead of looped on.
    std::unordered_set<std::uint32_t> live;
    std::uint64_t sum_bytes = 0;
    bool ring_ok = true;
    std::uint32_t n = cache.headSlot();
    std::uint32_t prev = cache::ListCache::kNil;
    while (n != cache::ListCache::kNil) {
        if (!valid_slot(n)) {
            out.report(Severity::Error, "list-ring-broken", where,
                       format("victim list reaches slot {} outside "
                              "the {}-slot slab",
                              n, slab));
            ring_ok = false;
            break;
        }
        if (!live.insert(n).second) {
            out.report(Severity::Error, "list-ring-broken", where,
                       format("victim list cycles back to slot {}",
                              n));
            ring_ok = false;
            break;
        }
        const cache::ListCache::Node &node = cache.slot(n);
        if (node.prev != prev) {
            out.report(Severity::Error, "list-ring-broken", where,
                       format("slot {} back-link is {} but should be "
                              "{}",
                              n, node.prev, prev));
            ring_ok = false;
        }
        sum_bytes += node.frag.sizeBytes;
        prev = n;
        n = node.next;
    }
    if (ring_ok && prev != cache.tailSlot()) {
        out.report(Severity::Error, "list-ring-broken", where,
                   format("victim list ends at slot {} but the tail "
                          "pointer says {}",
                          prev, cache.tailSlot()));
        ring_ok = false;
    }
    if (ring_ok && live.size() != cache.fragmentCount()) {
        out.report(Severity::Error, "list-ring-broken", where,
                   format("victim list holds {} slots but the cache "
                          "counts {} fragments",
                          live.size(), cache.fragmentCount()));
    }

    // Free-list walk: bounded, disjoint from the ring, and together
    // with it covering the slab.
    std::size_t free_count = 0;
    n = cache.freeHeadSlot();
    std::unordered_set<std::uint32_t> free_seen;
    while (n != cache::ListCache::kNil) {
        if (!valid_slot(n)) {
            out.report(Severity::Error, "list-free-broken", where,
                       format("free list reaches slot {} outside the "
                              "{}-slot slab",
                              n, slab));
            break;
        }
        if (!free_seen.insert(n).second) {
            out.report(Severity::Error, "list-free-broken", where,
                       format("free list cycles back to slot {}", n));
            break;
        }
        if (live.count(n) != 0) {
            out.report(Severity::Error, "list-free-broken", where,
                       format("slot {} is on both the victim list and "
                              "the free list",
                              n));
        }
        ++free_count;
        n = cache.slot(n).next;
    }
    if (ring_ok && free_seen.size() == free_count &&
        live.size() + free_count != slab) {
        out.report(Severity::Error, "list-free-broken", where,
                   format("{} live + {} free slots do not cover the "
                          "{}-slot slab",
                          live.size(), free_count, slab));
    }

    // Id index vs. ring membership.
    cache.slotIndex().forEach([&](cache::TraceId id,
                                  std::uint32_t slot) {
        if (!valid_slot(slot) || slot == cache::ListCache::kNil) {
            out.report(Severity::Error, "list-index", where,
                       format("trace {} indexed at invalid slot {}",
                              id, slot));
            return;
        }
        if (cache.slot(slot).frag.id != id) {
            out.report(Severity::Error, "list-index", where,
                       format("trace {} indexed at slot {} which "
                              "holds trace {}",
                              id, slot, cache.slot(slot).frag.id));
        }
        if (ring_ok && live.count(slot) == 0) {
            out.report(Severity::Error, "list-index", where,
                       format("trace {} indexed at slot {} which is "
                              "not on the victim list",
                              id, slot));
        }
    });
    if (cache.slotIndex().size() != cache.fragmentCount()) {
        out.report(Severity::Error, "list-index", where,
                   format("index holds {} entries but the cache "
                          "counts {} fragments",
                          cache.slotIndex().size(),
                          cache.fragmentCount()));
    }

    if (ring_ok && sum_bytes != cache.usedBytes()) {
        out.report(Severity::Error, "list-bytes", where,
                   format("resident fragments sum to {} bytes but "
                          "usedBytes reports {}",
                          sum_bytes, cache.usedBytes()));
    }
    if (cache.capacity() > 0 && cache.usedBytes() > cache.capacity()) {
        out.report(Severity::Error, "list-over-capacity", where,
                   format("usedBytes {} exceeds capacity {}",
                          cache.usedBytes(), cache.capacity()));
    }
}

/** Fallback for unknown LocalCache implementations. */
void
checkGenericCache(const cache::LocalCache &cache,
                  const std::string &where, DiagnosticEngine &out)
{
    std::uint64_t sum_bytes = 0;
    cache.forEach([&](const cache::Fragment &frag) {
        sum_bytes += frag.sizeBytes;
    });
    if (sum_bytes != cache.usedBytes()) {
        out.report(Severity::Error, "cache-bytes", where,
                   format("resident fragments sum to {} bytes but "
                          "usedBytes reports {}",
                          sum_bytes, cache.usedBytes()));
    }
    if (cache.capacity() > 0 && cache.usedBytes() > cache.capacity()) {
        out.report(Severity::Error, "cache-over-capacity", where,
                   format("usedBytes {} exceeds capacity {}",
                          cache.usedBytes(), cache.capacity()));
    }
}

/** Promotion-flow conservation across the cascade: nothing flows
 *  into the first tier or out of the last, every edge conserves, and
 *  the manager total is the sum of tier admissions. */
void
checkTierFlow(const cache::TierPipeline &pipeline,
              DiagnosticEngine &out)
{
    std::size_t tiers = pipeline.tierCount();
    auto tier_name = [&](std::size_t tier) {
        return cache::generationName(pipeline.tierLabel(tier));
    };
    auto flow = [&](bool ok, std::string message) {
        if (!ok) {
            out.report(Severity::Error, "tier-flow", pipeline.name(),
                       std::move(message));
        }
    };
    std::uint64_t admitted = 0;
    for (std::size_t tier = 1; tier < tiers; ++tier) {
        admitted += pipeline.tierStats(tier).promotionsIn;
    }
    flow(pipeline.tierStats(0).promotionsIn == 0,
         format("{} reports {} inbound promotions; nothing promotes "
                "into the first tier",
                tier_name(0), pipeline.tierStats(0).promotionsIn));
    flow(pipeline.tierStats(tiers - 1).promotionsOut == 0,
         format("{} reports {} outbound promotions; nothing promotes "
                "out of the last tier",
                tier_name(tiers - 1),
                pipeline.tierStats(tiers - 1).promotionsOut));
    for (std::size_t tier = 0; tier + 1 < tiers; ++tier) {
        flow(pipeline.tierStats(tier + 1).promotionsIn ==
                 pipeline.tierStats(tier).promotionsOut,
             format("{} promoted {} out but {} admitted {}",
                    tier_name(tier),
                    pipeline.tierStats(tier).promotionsOut,
                    tier_name(tier + 1),
                    pipeline.tierStats(tier + 1).promotionsIn));
    }
    flow(pipeline.stats().promotions == admitted,
         format("manager counts {} promotions but the tiers admitted "
                "{}",
                pipeline.stats().promotions, admitted));
}

/** Tier-pipeline invariants, generalizing the Figure 8 hierarchy
 *  checks to any tier count (a 3-tier pipeline is the paper's
 *  generational trio, a single tier the unified baseline). */
void
checkTierPipeline(const cache::TierPipeline &pipeline,
                  DiagnosticEngine &out)
{
    std::size_t tiers = pipeline.tierCount();
    auto tier_name = [&](std::size_t tier) {
        return cache::generationName(pipeline.tierLabel(tier));
    };

    // Per-tier storage + exactly-one-residency across the pipeline.
    std::unordered_map<cache::TraceId, std::size_t> resident;
    for (std::size_t tier = 0; tier < tiers; ++tier) {
        const cache::LocalCache &local = pipeline.tierCache(tier);
        checkLocalCache(local, tier_name(tier), out);
        local.forEach([&](const cache::Fragment &frag) {
            auto [it, fresh] = resident.emplace(frag.id, tier);
            if (!fresh) {
                out.report(Severity::Error, "tier-dup-residency",
                           format("trace {}", frag.id),
                           format("resident in both {} and {}",
                                  tier_name(it->second),
                                  tier_name(tier)));
            }
        });
    }

    // Residency index vs. actual cache contents. Single-tier
    // pipelines keep no index (the tier is always 0); theirs must
    // stay empty.
    const auto &where = pipeline.residencyIndex();
    if (tiers == 1) {
        if (where.size() != 0) {
            out.report(Severity::Error, "tier-index-mismatch",
                       pipeline.name(),
                       format("single-tier pipeline carries {} "
                              "residency index entries",
                              where.size()));
        }
        checkTierFlow(pipeline, out);
        return;
    }
    for (const auto &[id, tier] : resident) {
        const cache::TierId *indexed = where.find(id);
        if (indexed == nullptr) {
            out.report(Severity::Error, "tier-index-mismatch",
                       format("trace {}", id),
                       format("resident in {} but absent from the "
                              "residency index",
                              tier_name(tier)));
        } else if (*indexed != tier) {
            out.report(Severity::Error, "tier-index-mismatch",
                       format("trace {}", id),
                       format("resident in {} but indexed in {}",
                              tier_name(tier),
                              tier_name(*indexed)));
        }
    }
    where.forEach([&](cache::TraceId id, const cache::TierId &tier) {
        if (resident.find(id) == resident.end()) {
            out.report(Severity::Error, "tier-index-mismatch",
                       format("trace {}", id),
                       format("indexed in {} but resident nowhere",
                              tier_name(tier)));
        }
    });

    checkTierFlow(pipeline, out);
}

} // namespace

void
checkLocalCache(const cache::LocalCache &cache,
                const std::string &where, DiagnosticEngine &out)
{
    if (const auto *pseudo =
            dynamic_cast<const cache::PseudoCircularCache *>(&cache)) {
        checkRegion(pseudo->region(), where, out);
        return;
    }
    if (const auto *list =
            dynamic_cast<const cache::ListCache *>(&cache)) {
        checkListCache(*list, where, out);
        return;
    }
    checkGenericCache(cache, where, out);
}

void
CacheStatePass::run(const AnalysisInput &input,
                    DiagnosticEngine &out) const
{
    const cache::TierPipeline *manager = input.manager;
    if (manager == nullptr && input.runtime != nullptr) {
        manager = &input.runtime->manager();
    }
    if (manager != nullptr) {
        checkTierPipeline(*manager, out);
    }
}

} // namespace gencache::analysis
