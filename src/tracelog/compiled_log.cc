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

} // namespace

CompiledLog
CompiledLog::compile(const AccessLog &log)
{
    CompiledLog out;
    out.benchmark_ = log.benchmark();
    out.duration_ = log.duration();
    out.footprint_ = log.footprintBytes();
    out.createdBytes_ = log.createdTraceBytes();
    out.createdCount_ = log.createdTraceCount();
    out.moduleUids_ = log.moduleUids();

    const std::size_t count = log.size();
    out.type_.reserve(count);
    out.time_.reserve(count);
    out.trace_.reserve(count);
    out.size_.reserve(count);
    out.module_.reserve(count);
    out.execPinned_.reserve(count);

    DenseIdMap remap(log.createdTraceCount());
    std::unordered_map<cache::ModuleId, std::size_t> moduleSlot;
    std::vector<bool> created;
    std::vector<std::uint8_t> pinWanted;

    auto dense_of = [&](cache::TraceId id) {
        auto [dense, fresh] = remap.findOrAssign(
            id, static_cast<DenseTraceId>(out.originalId_.size()));
        if (fresh) {
            out.originalId_.push_back(id);
            out.traceSize_.push_back(0);
            out.traceModule_.push_back(cache::kNoModule);
            created.push_back(false);
            pinWanted.push_back(0);
        }
        return dense;
    };

    for (std::size_t i = 0; i < count; ++i) {
        const Event &event = log[i];
        DenseTraceId dense = 0;
        std::uint32_t size_bytes = 0;
        cache::ModuleId module = cache::kNoModule;
        switch (event.type) {
          case EventType::TraceCreate:
            dense = dense_of(event.trace);
            if (created[dense]) {
                GENCACHE_PANIC("trace {} created twice in log",
                               event.trace);
            }
            created[dense] = true;
            pinWanted[dense] = 0;
            out.traceSize_[dense] = event.sizeBytes;
            out.traceModule_[dense] = event.module;
            size_bytes = event.sizeBytes;
            module = event.module;
            break;
          case EventType::TraceExec:
            dense = dense_of(event.trace);
            if (!created[dense]) {
                GENCACHE_PANIC("execution of unknown trace {}",
                               event.trace);
            }
            break;
          case EventType::Pin:
            dense = dense_of(event.trace);
            pinWanted[dense] = 1;
            break;
          case EventType::Unpin:
            dense = dense_of(event.trace);
            pinWanted[dense] = 0;
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload: {
            module = event.module;
            auto [it, fresh] =
                moduleSlot.emplace(module, out.moduleRanges_.size());
            if (fresh) {
                ModuleRange range;
                range.module = module;
                range.firstEvent = i;
                out.moduleRanges_.push_back(range);
            }
            ModuleRange &range = out.moduleRanges_[it->second];
            range.lastEvent = i;
            if (event.type == EventType::ModuleLoad) {
                ++range.loads;
            } else {
                ++range.unloads;
            }
            break;
          }
        }
        out.type_.push_back(event.type);
        out.time_.push_back(event.time);
        out.trace_.push_back(dense);
        out.size_.push_back(size_bytes);
        out.module_.push_back(module);
        out.execPinned_.push_back(
            event.type == EventType::TraceExec ? pinWanted[dense] : 0);
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
    auto isModuleEvent = [](EventType type) {
        return type == EventType::ModuleLoad ||
               type == EventType::ModuleUnload;
    };

    std::size_t i = 0;
    while (i < count) {
        if (isModuleEvent(type_[i])) {
            Chunk barrier;
            barrier.first = i;
            barrier.count = 1;
            barrier.typeMask = static_cast<std::uint8_t>(
                1u << static_cast<unsigned>(type_[i]));
            barrier.barrier = true;
            chunks_.push_back(barrier);
            ++i;
            continue;
        }
        // Extend a trace-event chunk to kChunkEvents or the next
        // module event, whichever comes first.
        std::size_t end = i;
        const std::size_t limit =
            std::min(count, i + kChunkEvents);
        while (end < limit && !isModuleEvent(type_[end])) {
            ++end;
        }
        Chunk chunk;
        chunk.first = i;
        chunk.count = static_cast<std::uint32_t>(end - i);
        chunk.typeMask =
            simd::byteOccurrenceMask(bytes + i, end - i);
        chunks_.push_back(chunk);
        i = end;
    }
}

} // namespace gencache::tracelog
