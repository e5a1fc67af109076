#include "analysis/link_passes.h"

#include <algorithm>

#include "codecache/tier_pipeline.h"
#include "runtime/linker.h"
#include "runtime/runtime.h"
#include "support/format.h"

namespace gencache::analysis {
namespace {

std::string
nodeLocation(cache::TraceId id)
{
    return format("trace {}", id);
}

} // namespace

void
LinkGraphPass::run(const AnalysisInput &input,
                   DiagnosticEngine &out) const
{
    const runtime::TraceLinker *linker = input.linker;
    if (linker == nullptr && input.runtime != nullptr) {
        linker = &input.runtime->linker();
    }
    if (linker == nullptr) {
        return;
    }
    const cache::TierPipeline *manager = input.manager;
    if (manager == nullptr && input.runtime != nullptr) {
        manager = &input.runtime->manager();
    }

    const auto &nodes = linker->nodes();
    const auto &by_entry = linker->entryIndex();

    for (const auto &[id, node] : nodes) {
        std::string where = nodeLocation(id);

        // Unlink-on-evict completeness: a node for a trace the cache
        // no longer holds means eviction forgot to tell the linker.
        if (manager != nullptr && !manager->contains(id)) {
            out.report(Severity::Error, "link-stale-node", where,
                       "linker node for a trace that is not resident "
                       "in any cache");
        }

        // Edge symmetry, residency of both endpoints, and the side
        // exit that justifies each edge.
        for (cache::TraceId to : node.outgoing) {
            auto target = nodes.find(to);
            if (target == nodes.end()) {
                out.report(Severity::Error, "link-dangling", where,
                           format("patched edge to trace {} which has "
                                  "no linker node",
                                  to));
                continue;
            }
            if (manager != nullptr && !manager->contains(to)) {
                out.report(Severity::Error, "link-dangling", where,
                           format("patched edge to non-resident "
                                  "trace {}",
                                  to));
            }
            if (target->second.incoming.count(id) == 0) {
                out.report(Severity::Error, "link-asym", where,
                           format("outgoing edge to trace {} missing "
                                  "from its incoming set",
                                  to));
            }
            if (std::find(node.exitTargets.begin(),
                          node.exitTargets.end(),
                          target->second.entry) ==
                node.exitTargets.end()) {
                out.report(Severity::Error, "link-edge-no-exit", where,
                           format("patched edge to trace {} but no "
                                  "side exit targets its entry {}",
                                  to, hexAddr(target->second.entry)));
            }
        }
        for (cache::TraceId from : node.incoming) {
            auto source = nodes.find(from);
            if (source == nodes.end()) {
                out.report(Severity::Error, "link-dangling", where,
                           format("incoming edge from trace {} which "
                                  "has no linker node",
                                  from));
                continue;
            }
            if (source->second.outgoing.count(id) == 0) {
                out.report(Severity::Error, "link-asym", where,
                           format("incoming edge from trace {} "
                                  "missing from its outgoing set",
                                  from));
            }
        }

        // Entry-index agreement (node -> index direction).
        auto entry_it = by_entry.find(node.entry);
        if (entry_it == by_entry.end() || entry_it->second != id) {
            out.report(Severity::Error, "link-entry-stale", where,
                       format("entry {} does not map back to this "
                              "trace in the entry index",
                              hexAddr(node.entry)));
        }

        // Missed linking opportunity: a side exit aimed at a resident
        // entry should have been patched.
        for (isa::GuestAddr exit : node.exitTargets) {
            auto hit = by_entry.find(exit);
            if (hit != by_entry.end() &&
                node.outgoing.count(hit->second) == 0) {
                out.report(Severity::Warning, "link-unpatched", where,
                           format("side exit {} targets resident "
                                  "trace {} but no edge is patched",
                                  hexAddr(exit), hit->second));
            }
        }
    }

    // Entry-index agreement (index -> node direction).
    for (const auto &[entry, id] : by_entry) {
        auto it = nodes.find(id);
        if (it == nodes.end() || it->second.entry != entry) {
            out.report(Severity::Error, "link-entry-stale",
                       nodeLocation(id),
                       format("entry index maps {} to a node that "
                              "does not exist or disagrees",
                              hexAddr(entry)));
        }
    }

    // A resident trace the linker never saw cannot be linked to or
    // from — legal but a lost optimization, so only a warning.
    if (input.runtime != nullptr && manager != nullptr) {
        for (const auto &[id, trace] : input.runtime->traces()) {
            if (manager->contains(id) && nodes.find(id) == nodes.end()) {
                out.report(Severity::Warning, "link-missing-node",
                           nodeLocation(id),
                           "trace is cache-resident but unknown to "
                           "the linker");
            }
        }
    }
}

} // namespace gencache::analysis
