#include "tracelog/event.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/logging.h"

namespace gencache::tracelog {

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::TraceCreate: return "create";
      case EventType::TraceExec: return "exec";
      case EventType::ModuleLoad: return "load";
      case EventType::ModuleUnload: return "unload";
      case EventType::Pin: return "pin";
      case EventType::Unpin: return "unpin";
    }
    GENCACHE_PANIC("unknown event type {}", static_cast<int>(type));
}

Event
Event::traceCreate(TimeUs time, cache::TraceId trace,
                   std::uint32_t size_bytes, cache::ModuleId module)
{
    Event event;
    event.type = EventType::TraceCreate;
    event.time = time;
    event.trace = trace;
    event.sizeBytes = size_bytes;
    event.module = module;
    return event;
}

Event
Event::traceExec(TimeUs time, cache::TraceId trace)
{
    Event event;
    event.type = EventType::TraceExec;
    event.time = time;
    event.trace = trace;
    return event;
}

Event
Event::moduleLoad(TimeUs time, cache::ModuleId module)
{
    Event event;
    event.type = EventType::ModuleLoad;
    event.time = time;
    event.module = module;
    return event;
}

Event
Event::moduleUnload(TimeUs time, cache::ModuleId module)
{
    Event event;
    event.type = EventType::ModuleUnload;
    event.time = time;
    event.module = module;
    return event;
}

Event
Event::pin(TimeUs time, cache::TraceId trace)
{
    Event event;
    event.type = EventType::Pin;
    event.time = time;
    event.trace = trace;
    return event;
}

Event
Event::unpin(TimeUs time, cache::TraceId trace)
{
    Event event;
    event.type = EventType::Unpin;
    event.time = time;
    event.trace = trace;
    return event;
}

void
AccessLog::append(const Event &event)
{
    if (!events_.empty() && event.time < events_.back().time) {
        GENCACHE_PANIC("log time moved backwards: {} after {}",
                       event.time, events_.back().time);
    }
    if (event.type == EventType::TraceCreate) {
        createdBytes_ += event.sizeBytes;
        ++createdCount_;
    }
    events_.push_back(event);
}

void
AccessLog::adoptEvents(std::vector<Event> events)
{
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;
    TimeUs last = 0;
    for (const Event &event : events) {
        if (event.time < last) {
            GENCACHE_PANIC("log time moved backwards: {} after {}",
                           event.time, last);
        }
        last = event.time;
        if (event.type == EventType::TraceCreate) {
            bytes += event.sizeBytes;
            ++count;
        }
    }
    events_ = std::move(events);
    createdBytes_ = bytes;
    createdCount_ = count;
}

std::string
AccessLog::firstViolation() const
{
    // A re-creation of the same trace id is legal only across a
    // reload of its module: each trace remembers the module unload
    // epoch it was created under, and a second creation requires the
    // epoch to have advanced since (canonical (module, offset) ids
    // are stable, so the reload path genuinely re-creates them).
    struct Creation
    {
        cache::ModuleId module = cache::kNoModule;
        std::uint64_t unloadEpoch = 0;
    };
    std::unordered_map<cache::TraceId, Creation> created;
    std::unordered_map<cache::ModuleId, std::uint64_t> unloadEpoch;
    std::unordered_set<cache::ModuleId> loaded;
    TimeUs last = 0;
    for (const Event &event : events_) {
        if (event.time < last) {
            return format("unsorted log at t={}", event.time);
        }
        last = event.time;
        switch (event.type) {
          case EventType::TraceCreate: {
            if (event.trace == cache::kInvalidTrace) {
                return format("trace {} is the reserved invalid trace id",
                              event.trace);
            }
            if (loaded.count(event.module) == 0) {
                return format("trace {} created in module {}, which is "
                              "not loaded",
                              event.trace, event.module);
            }
            std::uint64_t epoch = unloadEpoch[event.module];
            auto [it, inserted] = created.emplace(
                event.trace, Creation{event.module, epoch});
            if (!inserted) {
                if (it->second.module != event.module) {
                    return format(
                        "trace {} re-created in module {} (was {})",
                        event.trace, event.module, it->second.module);
                }
                if (it->second.unloadEpoch == epoch) {
                    return format("duplicate creation of trace {}",
                                  event.trace);
                }
                it->second.unloadEpoch = epoch;
            }
            if (event.sizeBytes == 0) {
                return format("trace {} created with zero size",
                              event.trace);
            }
            break;
          }
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            if (created.count(event.trace) == 0) {
                return format("trace {} used before creation",
                              event.trace);
            }
            break;
          case EventType::ModuleLoad:
            if (event.module == cache::kNoModule) {
                return format("module {} is the reserved no-module id",
                              event.module);
            }
            if (!loaded.insert(event.module).second) {
                return format("module {} loaded twice", event.module);
            }
            break;
          case EventType::ModuleUnload:
            if (loaded.erase(event.module) == 0) {
                return format("module {} unloaded while not loaded",
                              event.module);
            }
            ++unloadEpoch[event.module];
            break;
        }
    }
    return {};
}

void
AccessLog::validate() const
{
    std::string violation = firstViolation();
    if (!violation.empty()) {
        GENCACHE_PANIC("{}", violation);
    }
}

} // namespace gencache::tracelog
