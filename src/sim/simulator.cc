#include "sim/simulator.h"

#include "support/logging.h"

namespace gencache::sim {

CacheSimulator::CacheSimulator(cache::CacheManager &manager)
    : manager_(manager)
{
    manager_.setListener(&account_);
}

SimResult
CacheSimulator::run(const tracelog::AccessLog &log)
{
    std::unordered_map<cache::TraceId, TraceInfo> registry;
    SimResult result;
    result.benchmark = log.benchmark();
    result.manager = manager_.name();

    auto note_peak = [&]() {
        std::uint64_t used = manager_.usedBytes();
        if (used > result.peakBytes) {
            result.peakBytes = used;
        }
    };

    // Event index of each module's latest unload.
    std::unordered_map<cache::ModuleId, std::size_t> lastUnload;

    for (std::size_t i = 0; i < log.size(); ++i) {
        const tracelog::Event &event = log[i];
        switch (event.type) {
          case tracelog::EventType::TraceCreate: {
            TraceInfo info;
            info.sizeBytes = event.sizeBytes;
            info.module = event.module;
            info.createdAt = i;
            auto [it, fresh] = registry.emplace(event.trace, info);
            if (!fresh) {
                // A module reload re-creates its traces under their
                // canonical ids: once the module of the previous
                // creation has unloaded, this is a fresh trace.
                auto unload = lastUnload.find(it->second.module);
                if (unload == lastUnload.end() ||
                    unload->second < it->second.createdAt) {
                    GENCACHE_PANIC("trace {} created twice in log",
                                   event.trace);
                }
                it->second = info;
            }
            ++result.createdTraces;
            result.createdBytes += event.sizeBytes;
            manager_.insert(event.trace, event.sizeBytes, event.module,
                            event.time);
            note_peak();
            break;
          }
          case tracelog::EventType::TraceExec: {
            auto it = registry.find(event.trace);
            if (it == registry.end()) {
                GENCACHE_PANIC("execution of unknown trace {}",
                               event.trace);
            }
            ++result.lookups;
            if (manager_.lookup(event.trace, event.time)) {
                ++result.hits;
            } else {
                ++result.misses;
                // Conflict miss: the optimizer regenerates the trace
                // and re-inserts it (§6.2).
                if (manager_.insert(event.trace,
                                    it->second.sizeBytes,
                                    it->second.module, event.time)) {
                    ++result.regenerations;
                    if (it->second.pinnedWanted) {
                        manager_.setPinned(event.trace, true);
                    }
                }
                note_peak();
            }
            break;
          }
          case tracelog::EventType::ModuleLoad:
            if (checkpointHook_) {
                checkpointHook_(manager_, event.time);
            }
            break;
          case tracelog::EventType::ModuleUnload:
            lastUnload[event.module] = i;
            manager_.invalidateModule(event.module, event.time);
            if (checkpointHook_) {
                checkpointHook_(manager_, event.time);
            }
            break;
          case tracelog::EventType::Pin: {
            auto it = registry.find(event.trace);
            if (it != registry.end()) {
                it->second.pinnedWanted = true;
            }
            manager_.setPinned(event.trace, true);
            break;
          }
          case tracelog::EventType::Unpin: {
            auto it = registry.find(event.trace);
            if (it != registry.end()) {
                it->second.pinnedWanted = false;
            }
            manager_.setPinned(event.trace, false);
            break;
          }
        }
    }

    if (checkpointHook_) {
        checkpointHook_(manager_, log.duration());
    }
    result.managerStats = manager_.stats();
    result.overhead = account_.breakdown();
    return result;
}

} // namespace gencache::sim
