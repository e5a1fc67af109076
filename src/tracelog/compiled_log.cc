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
 * The walk fills the trace tables and module ranges as it hands out
 * dense ids (@p tables true), or, over a log whose tables an earlier
 * walk filled, hands out the same ids in the same order and leaves
 * them be.
 */
struct CompiledLog::Walk
{
    Walk(std::size_t expected_traces, bool fill_tables)
        : remap(expected_traces), tables(fill_tables)
    {
    }

    DenseTraceId addDense(CompiledLog &out, cache::TraceId id)
    {
        const auto dense = static_cast<DenseTraceId>(createdAt.size());
        if (tables) {
            out.originalId_.push_back(id);
            out.traceSize_.push_back(0);
            out.traceModule_.push_back(cache::kNoModule);
        }
        createdAt.push_back(0);
        pinWanted.push_back(0);
        return dense;
    }

    DenseTraceId denseOf(CompiledLog &out, cache::TraceId id)
    {
        auto [dense, fresh] = remap.findOrAssign(
            id, static_cast<DenseTraceId>(createdAt.size()));
        if (fresh) {
            addDense(out, id);
        }
        return dense;
    }

    // A module reload re-creates its traces under their canonical ids.
    // Once the module of a trace's previous creation has unloaded, the
    // new creation is a fresh trace with its own dense id, so the side
    // tables keep one size and module per id.
    bool moduleUnloadedSinceCreation(const CompiledLog &out,
                                     DenseTraceId dense) const
    {
        auto slot = moduleSlot.find(out.traceModule_[dense]);
        return slot != moduleSlot.end() &&
               unloadedAt[slot->second] > createdAt[dense];
    }

    /** Walk event @p i; append its columns to @p out when
     *  @p columns. */
    void step(CompiledLog &out, std::size_t i, const Event &event,
              bool columns);

    DenseIdMap remap;
    bool tables;
    std::unordered_map<cache::ModuleId, std::size_t> moduleSlot;
    // 1 + event index of each module slot's latest unload and of each
    // dense id's creation; 0 for never.
    std::vector<std::size_t> unloadedAt;
    std::vector<std::size_t> createdAt;
    std::vector<std::uint8_t> pinWanted;
};

void
CompiledLog::Walk::step(CompiledLog &out, std::size_t i,
                        const Event &event, bool columns)
{
    DenseTraceId dense = 0;
    std::uint32_t size_bytes = 0;
    cache::ModuleId module = cache::kNoModule;
    switch (event.type) {
      case EventType::TraceCreate:
        dense = denseOf(out, event.trace);
        if (createdAt[dense] != 0) {
            if (!moduleUnloadedSinceCreation(out, dense)) {
                GENCACHE_PANIC("trace {} created twice in log",
                               event.trace);
            }
            dense = addDense(out, event.trace);
            remap.reassign(event.trace, dense);
        }
        createdAt[dense] = i + 1;
        pinWanted[dense] = 0;
        out.traceSize_[dense] = event.sizeBytes;
        out.traceModule_[dense] = event.module;
        size_bytes = event.sizeBytes;
        module = event.module;
        break;
      case EventType::TraceExec:
        dense = denseOf(out, event.trace);
        if (createdAt[dense] == 0) {
            GENCACHE_PANIC("execution of unknown trace {}", event.trace);
        }
        break;
      case EventType::Pin:
        dense = denseOf(out, event.trace);
        pinWanted[dense] = 1;
        break;
      case EventType::Unpin:
        dense = denseOf(out, event.trace);
        pinWanted[dense] = 0;
        break;
      case EventType::ModuleLoad:
      case EventType::ModuleUnload: {
        module = event.module;
        auto [it, fresh] = moduleSlot.emplace(module, unloadedAt.size());
        if (fresh) {
            unloadedAt.push_back(0);
            if (tables) {
                ModuleRange range;
                range.module = module;
                range.firstEvent = i;
                out.moduleRanges_.push_back(range);
            }
        }
        if (event.type == EventType::ModuleUnload) {
            unloadedAt[it->second] = i + 1;
        }
        if (tables) {
            ModuleRange &range = out.moduleRanges_[it->second];
            range.lastEvent = i;
            if (event.type == EventType::ModuleLoad) {
                ++range.loads;
            } else {
                ++range.unloads;
            }
        }
        break;
      }
    }
    if (columns) {
        out.type_.push_back(event.type);
        out.time_.push_back(event.time);
        out.trace_.push_back(dense);
        out.size_.push_back(size_bytes);
        out.module_.push_back(module);
        out.execPinned_.push_back(
            event.type == EventType::TraceExec ? pinWanted[dense] : 0);
    }
}

CompiledLog
CompiledLog::header(const AccessLog &log)
{
    CompiledLog out;
    out.benchmark_ = log.benchmark();
    out.duration_ = log.duration();
    out.footprint_ = log.footprintBytes();
    out.createdBytes_ = log.createdTraceBytes();
    out.createdCount_ = log.createdTraceCount();
    out.moduleUids_ = log.moduleUids();
    return out;
}

CompiledLog
CompiledLog::compile(const AccessLog &log)
{
    CompiledLog out = header(log);
    const std::size_t count = log.size();
    out.type_.reserve(count);
    out.time_.reserve(count);
    out.trace_.reserve(count);
    out.size_.reserve(count);
    out.module_.reserve(count);
    out.execPinned_.reserve(count);

    Walk walk(log.createdTraceCount(), /*tables=*/true);
    for (std::size_t i = 0; i < count; ++i) {
        walk.step(out, i, log[i], /*columns=*/true);
    }
    out.buildChunks();
    return out;
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
    : source_(log), windowEvents_(std::max<std::size_t>(1, window_events)),
      log_(CompiledLog::header(log))
{
    // The tables walk: execution events hand out no dense ids (an
    // execution of an unknown trace panics in its window's walk).
    CompiledLog::Walk tables(log.createdTraceCount(), /*tables=*/true);
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].type != EventType::TraceExec) {
            tables.step(log_, i, log[i], /*columns=*/false);
        }
    }
    walk_ = std::make_unique<CompiledLog::Walk>(log.createdTraceCount(),
                                                /*tables=*/false);
    fill();
}

CompiledLogWindows::~CompiledLogWindows() = default;

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
    log_.type_.clear();
    log_.time_.clear();
    log_.trace_.clear();
    log_.size_.clear();
    log_.module_.clear();
    log_.execPinned_.clear();
    log_.chunks_.clear();
    for (std::size_t i = windowEnd_; i < end; ++i) {
        walk_->step(log_, i, source_[i], /*columns=*/true);
    }
    log_.buildChunks();
    windowEnd_ = end;
}

} // namespace gencache::tracelog
