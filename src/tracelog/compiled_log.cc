#include "tracelog/compiled_log.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

#include "support/logging.h"
#include "support/simd.h"

namespace gencache::tracelog {

namespace {

/**
 * compile()'s TraceId -> dense id map: open addressing with linear
 * probing over a power-of-two table kept at most half full, slots
 * picked by Fibonacci hashing. compile() probes it once per trace
 * event, and std::unordered_map's prime-modulo bucket and node chase
 * made that probe about half of compile's cost.
 */
class DenseIdMap
{
  public:
    explicit DenseIdMap(std::size_t expected)
    {
        rehash(std::bit_ceil(std::max<std::size_t>(16, 2 * expected)));
    }

    /** The dense id of @p id, assigning @p next when @p id is new.
     *  @return the id and whether it was assigned by this call. */
    std::pair<DenseTraceId, bool> findOrAssign(cache::TraceId id,
                                               DenseTraceId next)
    {
        Slot &slot = probe(id);
        if (slot.densePlusOne != 0) {
            return {slot.densePlusOne - 1, false};
        }
        slot = Slot{id, next + 1};
        if (2 * ++size_ > slots_.size()) {
            rehash(2 * slots_.size());
        }
        return {next, true};
    }

    /** Point @p id, which must be present, at dense id @p dense. */
    void reassign(cache::TraceId id, DenseTraceId dense)
    {
        probe(id).densePlusOne = dense + 1;
    }

  private:
    struct Slot
    {
        cache::TraceId id = 0;
        DenseTraceId densePlusOne = 0; ///< 0 marks an empty slot
    };

    Slot &probe(cache::TraceId id)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = (id * 0x9E3779B97F4A7C15ull) >> shift_;
        while (slots_[i].densePlusOne != 0 && slots_[i].id != id) {
            i = (i + 1) & mask;
        }
        return slots_[i];
    }

    void rehash(std::size_t capacity)
    {
        std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(capacity));
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (const Slot &slot : old) {
            if (slot.densePlusOne != 0) {
                probe(slot.id) = slot;
            }
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 0;
    std::size_t size_ = 0;
};

bool
isModuleEvent(EventType type)
{
    return type == EventType::ModuleLoad ||
           type == EventType::ModuleUnload;
}

/** End of the chunk that starts at event @p i of @p count: a module
 *  event is a chunk alone; a trace-event chunk runs to kChunkEvents
 *  or the next module event, whichever comes first. */
template <class TypeAt>
std::size_t
chunkEnd(std::size_t i, std::size_t count, TypeAt type_at)
{
    if (isModuleEvent(type_at(i))) {
        return i + 1;
    }
    const std::size_t limit =
        std::min(count, i + CompiledLog::kChunkEvents);
    std::size_t end = i + 1;
    while (end < limit && !isModuleEvent(type_at(end))) {
        ++end;
    }
    return end;
}

} // namespace

/**
 * The walk hands out dense ids in order of first appearance, one per
 * TraceId, and a fresh one for a creation after the trace's module
 * unloaded; over a log whose tables an earlier walk filled (a
 * column-only builder), it hands out the same ids in the same order.
 */
struct CompiledLog::Walk
{
    Walk(Builder out, std::size_t expected_traces)
        : builder(std::move(out)), remap(expected_traces)
    {
    }

    DenseTraceId addDense(cache::TraceId id)
    {
        createdAt.push_back(0);
        return builder.addTrace(id);
    }

    DenseTraceId denseOf(cache::TraceId id)
    {
        auto [dense, fresh] = remap.findOrAssign(id, builder.traceCount());
        if (fresh) {
            addDense(id);
        }
        return dense;
    }

    /** Walk event @p i. */
    void step(std::size_t i, const Event &event);

    Builder builder;
    DenseIdMap remap;
    /** 1 + event index of each dense id's creation; 0 for never. */
    std::vector<std::size_t> createdAt;
};

void
CompiledLog::Walk::step(std::size_t i, const Event &event)
{
    switch (event.type) {
      case EventType::TraceCreate: {
        DenseTraceId dense = denseOf(event.trace);
        if (createdAt[dense] != 0) {
            // A module reload re-creates its traces under their
            // canonical ids. Once the module of a trace's previous
            // creation has unloaded, the new creation is a fresh trace
            // with its own dense id, so the side tables keep one size
            // and module per id.
            if (builder.lastUnload(builder.log().traceModule(dense)) <=
                createdAt[dense]) {
                GENCACHE_PANIC("trace {} created twice in log",
                               event.trace);
            }
            dense = addDense(event.trace);
            remap.reassign(event.trace, dense);
        }
        createdAt[dense] = i + 1;
        builder.create(event.time, dense, event.sizeBytes, event.module);
        break;
      }
      case EventType::TraceExec: {
        const DenseTraceId dense = denseOf(event.trace);
        if (createdAt[dense] == 0) {
            GENCACHE_PANIC("execution of unknown trace {}", event.trace);
        }
        builder.append(event.type, event.time, dense);
        break;
      }
      case EventType::Pin:
      case EventType::Unpin:
        builder.append(event.type, event.time, denseOf(event.trace));
        break;
      case EventType::ModuleLoad:
      case EventType::ModuleUnload:
        builder.moduleEvent(i, event.type, event.time, event.module);
        break;
    }
}

CompiledLog::Builder::Builder(const AccessLog &header, std::size_t events)
    : Builder(CompiledLog::header(header), /*tables=*/true,
              /*columns=*/true)
{
    out_.type_.reserve(events);
    out_.time_.reserve(events);
    out_.trace_.reserve(events);
    out_.execPinned_.reserve(events);
}

CompiledLog::Builder::Builder(CompiledLog out, bool tables, bool columns)
    : out_(std::move(out)), tables_(tables), columns_(columns)
{
}

void
CompiledLog::Builder::moduleEvent(std::size_t i, EventType type,
                                  TimeUs time, cache::ModuleId module)
{
    auto [it, fresh] = moduleSlot_.emplace(module, unloadedAt_.size());
    if (fresh) {
        unloadedAt_.push_back(0);
        if (tables_) {
            ModuleRange range;
            range.module = module;
            range.firstEvent = i;
            out_.moduleRanges_.push_back(range);
        }
    }
    if (type == EventType::ModuleUnload) {
        unloadedAt_[it->second] = i + 1;
    }
    if (tables_) {
        ModuleRange &range = out_.moduleRanges_[it->second];
        range.lastEvent = i;
        if (type == EventType::ModuleLoad) {
            ++range.loads;
        } else {
            ++range.unloads;
        }
    }
    column(type, time, module, 0);
}

std::size_t
CompiledLog::Builder::lastUnload(cache::ModuleId module) const
{
    auto slot = moduleSlot_.find(module);
    return slot == moduleSlot_.end() ? 0 : unloadedAt_[slot->second];
}

CompiledLog
CompiledLog::Builder::finish()
{
    out_.buildChunks();
    return std::move(out_);
}

CompiledLog
CompiledLog::header(const AccessLog &log)
{
    CompiledLog out;
    out.benchmark_ = log.benchmark();
    out.duration_ = log.duration();
    out.footprint_ = log.footprintBytes();
    out.moduleUids_ = log.moduleUids();
    return out;
}

CompiledLog
CompiledLog::compile(const AccessLog &log)
{
    Walk walk(Builder(log, log.size()), log.createdTraceCount());
    for (std::size_t i = 0; i < log.size(); ++i) {
        walk.step(i, log[i]);
    }
    return walk.builder.finish();
}

AccessLog
CompiledLog::toAccessLog() const
{
    std::vector<Event> events;
    events.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
        const DenseTraceId ref = trace_[i];
        Event &event = events.emplace_back();
        event.type = type_[i];
        event.time = time_[i];
        switch (event.type) {
          case EventType::TraceCreate:
            event.sizeBytes = traceSize_[ref];
            event.module = traceModule_[ref];
            [[fallthrough]];
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            event.trace = originalId_[ref];
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            event.module = ref;
            break;
        }
    }
    AccessLog log;
    log.setBenchmark(benchmark_);
    log.setDuration(duration_);
    log.setFootprintBytes(footprint_);
    for (const auto &[module, uid] : moduleUids_) {
        log.setModuleUid(module, uid);
    }
    log.adoptEvents(std::move(events));
    return log;
}

void
CompiledLog::buildChunks()
{
    const std::size_t count = type_.size();
    const std::uint8_t *bytes =
        reinterpret_cast<const std::uint8_t *>(type_.data());
    auto type_at = [this](std::size_t i) { return type_[i]; };
    for (std::size_t i = 0; i < count;) {
        const std::size_t end = chunkEnd(i, count, type_at);
        Chunk chunk;
        chunk.first = i;
        chunk.count = static_cast<std::uint32_t>(end - i);
        chunk.typeMask = simd::byteOccurrenceMask(bytes + i, end - i);
        chunk.barrier = isModuleEvent(type_[i]);
        chunks_.push_back(chunk);
        i = end;
    }
}

CompiledLogWindows::CompiledLogWindows(const AccessLog &log,
                                       std::size_t window_events)
    : source_(log), windowEvents_(std::max<std::size_t>(1, window_events))
{
    // The tables walk: execution events hand out no dense ids (an
    // execution of an unknown trace panics in its window's walk).
    CompiledLog::Walk tables(
        CompiledLog::Builder(CompiledLog::header(log), /*tables=*/true,
                             /*columns=*/false),
        log.createdTraceCount());
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].type != EventType::TraceExec) {
            tables.step(i, log[i]);
        }
    }
    walk_ = std::make_unique<CompiledLog::Walk>(
        CompiledLog::Builder(tables.builder.finish(), /*tables=*/false,
                             /*columns=*/true),
        log.createdTraceCount());
    fill();
}

CompiledLogWindows::~CompiledLogWindows() = default;

const CompiledLog &
CompiledLogWindows::log() const
{
    return walk_->builder.log();
}

bool
CompiledLogWindows::next()
{
    if (windowEnd_ == source_.size()) {
        return false;
    }
    fill();
    return true;
}

void
CompiledLogWindows::fill()
{
    const std::size_t count = source_.size();
    std::size_t end = windowEnd_;
    auto type_at = [this](std::size_t i) { return source_[i].type; };
    while (end < count && end - windowEnd_ < windowEvents_) {
        end = chunkEnd(end, count, type_at);
    }
    CompiledLog &window = walk_->builder.out_;
    window.type_.clear();
    window.time_.clear();
    window.trace_.clear();
    window.execPinned_.clear();
    window.chunks_.clear();
    for (std::size_t i = windowEnd_; i < end; ++i) {
        walk_->step(i, source_[i]);
    }
    window.buildChunks();
    windowEnd_ = end;
}

} // namespace gencache::tracelog
