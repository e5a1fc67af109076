#include "sim/batched_replay.h"

#include <algorithm>

#include "codecache/tier_pipeline.h"
#include "support/logging.h"

namespace gencache::sim {

BatchedReplay::BatchedReplay(const tracelog::CompiledLog &log)
    : log_(log)
{
}

BatchedReplay::BatchedReplay(const tracelog::AccessLog &log)
    : windows_(std::make_unique<tracelog::CompiledLogWindows>(
          log, kWindowEvents)),
      log_(windows_->log())
{
}

BatchedReplay::~BatchedReplay() = default;

std::size_t
BatchedReplay::addLane(cache::TierPipeline &pipeline,
                       cache::CacheEventListener *probe)
{
    if (begun_) {
        GENCACHE_PANIC("addLane() after begin()");
    }
    Lane lane;
    lane.pipeline = &pipeline;
    lane.probe = probe;
    lane.result.benchmark = log_.benchmark();
    lane.result.manager = pipeline.name();
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
}

void
BatchedReplay::setCostTables(const CostTables *tables)
{
    if (begun_) {
        GENCACHE_PANIC("setCostTables() after begin()");
    }
    sharedTables_ = tables;
}

std::vector<SimResult>
BatchedReplay::run()
{
    begin();
    const std::size_t laneCount = lanes_.size();
    do {
        for (std::size_t blockFirst = 0; blockFirst < laneCount;
             blockFirst += kLaneBlock) {
            const std::size_t blockEnd =
                std::min(laneCount, blockFirst + kLaneBlock);
            for (const tracelog::CompiledLog::Chunk &chunk :
                 log_.chunks()) {
                for (std::size_t l = blockFirst; l < blockEnd; ++l) {
                    replayChunk(lanes_[l], chunk);
                }
            }
        }
        chunkCursor_ = log_.chunks().size();
    } while (nextWindow());
    return finish();
}

bool
BatchedReplay::nextWindow()
{
    if (windows_ == nullptr || !windows_->next()) {
        return false;
    }
    chunkCursor_ = 0;
    return true;
}

void
BatchedReplay::runChunk(Lane &lane,
                        const tracelog::CompiledLog::Chunk &chunk)
{
    cache::TierPipeline &pipeline = *lane.pipeline;
    const TimeUs *times = log_.times().data();
    const tracelog::DenseTraceId *traces = log_.traces().data();
    const std::uint8_t *execPinned = log_.execPinned().data();
    SimResult &result = lane.result;

    auto note_peak = [&] {
        std::uint64_t used = pipeline.usedBytes();
        if (used > result.peakBytes) {
            result.peakBytes = used;
        }
    };
    auto miss_service = [&](std::size_t i,
                            tracelog::DenseTraceId dense,
                            TimeUs now) {
        if (pipeline.insert(dense, log_.traceSize(dense),
                            log_.traceModule(dense), now)) {
            ++result.regenerations;
            if (execPinned[i] != 0) {
                pipeline.setPinned(dense, true);
            }
        }
        note_peak();
    };

    const std::size_t first = chunk.first;
    const std::size_t end = first + chunk.count;

    if (chunk.barrier) {
        // Singleton module event: a global phase boundary.
        const TimeUs now = times[first];
        if (log_.types()[first] ==
            tracelog::EventType::ModuleUnload) {
            // A module event's trace column holds its module.
            pipeline.invalidateModule(log_.traces()[first], now);
        }
        if (checkpointHook_) {
            checkpointHook_(pipeline, now);
        }
        return;
    }

    if (chunk.pureExec()) {
        // The dominant chunk class: no event-type dispatch at all,
        // and the lookup counters are tallied once per chunk.
        std::uint64_t misses = 0;
        for (std::size_t i = first; i < end; ++i) {
            const tracelog::DenseTraceId dense = traces[i];
            const TimeUs now = times[i];
            if (!pipeline.lookup(dense, now)) [[unlikely]] {
                ++misses;
                miss_service(i, dense, now);
            }
        }
        result.lookups += chunk.count;
        result.hits += chunk.count - misses;
        result.misses += misses;
        return;
    }

    const tracelog::EventType *types = log_.types().data();
    for (std::size_t i = first; i < end; ++i) {
        const TimeUs now = times[i];
        const tracelog::DenseTraceId dense = traces[i];
        switch (types[i]) {
          case tracelog::EventType::TraceCreate: {
            const std::uint32_t size = log_.traceSize(dense);
            ++result.createdTraces;
            result.createdBytes += size;
            pipeline.insert(dense, size, log_.traceModule(dense), now);
            note_peak();
            break;
          }
          case tracelog::EventType::TraceExec:
            ++result.lookups;
            if (pipeline.lookup(dense, now)) {
                ++result.hits;
            } else {
                ++result.misses;
                miss_service(i, dense, now);
            }
            break;
          case tracelog::EventType::Pin:
            pipeline.setPinned(dense, true);
            break;
          case tracelog::EventType::Unpin:
            pipeline.setPinned(dense, false);
            break;
          case tracelog::EventType::ModuleLoad:
          case tracelog::EventType::ModuleUnload:
            GENCACHE_PANIC("module event outside a barrier chunk");
        }
    }
}

void
BatchedReplay::runChunkFast(Lane &lane,
                            const tracelog::CompiledLog::Chunk &chunk)
{
    cache::TierPipeline &pipeline = *lane.pipeline;
    if (chunk.barrier) {
        if (checkpointHook_) {
            // The hook may inspect fragments; fold the pending hit
            // counters in before the phase boundary runs. (Module
            // invalidation itself syncs each removed fragment, so
            // without a hook no flush is needed.)
            pipeline.flushFastCounts();
        }
        runChunk(lane, chunk);
        return;
    }

    const TimeUs *times = log_.times().data();
    const tracelog::DenseTraceId *traces = log_.traces().data();
    const std::uint8_t *execPinned = log_.execPinned().data();
    SimResult &result = lane.result;

    std::uint64_t tierHits[cache::kMaxTiers] = {};
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
    const std::size_t end = chunk.first + chunk.count;

    auto note_peak = [&] {
        std::uint64_t used = pipeline.usedBytes();
        if (used > result.peakBytes) {
            result.peakBytes = used;
        }
    };
    auto fast_exec = [&](std::size_t i,
                         tracelog::DenseTraceId dense) {
        const std::uint8_t tierPlusOne = pipeline.fastProbe(dense);
        if (tierPlusOne == 0) [[unlikely]] {
            ++misses;
            const TimeUs now = times[i];
            if (pipeline.insert(dense, log_.traceSize(dense),
                                log_.traceModule(dense), now)) {
                ++result.regenerations;
                if (execPinned[i] != 0) {
                    pipeline.setPinned(dense, true);
                }
            }
            note_peak();
        } else {
            ++tierHits[tierPlusOne - 1];
        }
    };

    // The sidecar of a big log spans megabytes, so the probe's slot
    // load usually misses L2; prefetching a fixed distance down the
    // dense-id column hides that latency behind the loop.
    constexpr std::size_t kProbeAhead = 16;
    const std::size_t fetchEnd = end - std::min<std::size_t>(
                                           end - chunk.first,
                                           kProbeAhead);

    if (chunk.pureExec()) {
        for (std::size_t i = chunk.first; i < end; ++i) {
            if (i < fetchEnd) {
                pipeline.fastPrefetch(traces[i + kProbeAhead]);
            }
            fast_exec(i, traces[i]);
        }
        lookups = chunk.count;
    } else {
        // Mixed chunk: keep the event switch but serve the exec
        // events (the bulk even here) from the sidecar.
        const tracelog::EventType *types = log_.types().data();
        for (std::size_t i = chunk.first; i < end; ++i) {
            const tracelog::DenseTraceId dense = traces[i];
            if (i < fetchEnd) {
                pipeline.fastPrefetch(traces[i + kProbeAhead]);
            }
            switch (types[i]) {
              case tracelog::EventType::TraceCreate: {
                const std::uint32_t size = log_.traceSize(dense);
                ++result.createdTraces;
                result.createdBytes += size;
                pipeline.insert(dense, size, log_.traceModule(dense),
                                times[i]);
                note_peak();
                break;
              }
              case tracelog::EventType::TraceExec:
                ++lookups;
                fast_exec(i, dense);
                break;
              case tracelog::EventType::Pin:
                pipeline.setPinned(dense, true);
                break;
              case tracelog::EventType::Unpin:
                pipeline.setPinned(dense, false);
                break;
              case tracelog::EventType::ModuleLoad:
              case tracelog::EventType::ModuleUnload:
                GENCACHE_PANIC("module event outside a barrier "
                               "chunk");
            }
        }
    }
    pipeline.noteFastLookups(lookups, misses, tierHits);
    result.lookups += lookups;
    result.hits += lookups - misses;
    result.misses += misses;
}

void
BatchedReplay::replayChunk(Lane &lane,
                           const tracelog::CompiledLog::Chunk &chunk)
{
    if (lane.fast) {
        runChunkFast(lane, chunk);
    } else {
        runChunk(lane, chunk);
    }
}

void
BatchedReplay::begin()
{
    if (begun_) {
        GENCACHE_PANIC("begin() called twice on one replay");
    }
    begun_ = true;
    const CostTables *tables = sharedTables_;
    if (tables == nullptr) {
        ownedTables_.emplace(
            CostTables::build(log_, cost::CostModel{}));
        tables = &*ownedTables_;
    }
    for (Lane &lane : lanes_) {
        lane.pipeline->prepareDenseIds(log_.traceCount());
        lane.account = std::make_unique<TableOverheadListener>(*tables);
        if (lane.probe != nullptr) {
            lane.tee = std::make_unique<cache::TeeListener>(
                *lane.account, *lane.probe);
            lane.pipeline->setListener(lane.tee.get());
        } else {
            lane.pipeline->setListener(lane.account.get());
        }
        // After the listener: a probe that wants hits or misses makes
        // the pipeline decline the sidecar.
        lane.fast = lane.pipeline->enableFastReplay(log_.traceCount());
    }
}

bool
BatchedReplay::step(std::size_t chunk_budget)
{
    if (!begun_) {
        GENCACHE_PANIC("step() before begin()");
    }
    const std::vector<tracelog::CompiledLog::Chunk> &chunks =
        log_.chunks();
    if (chunk_budget == 0 ||
        (chunkCursor_ >= chunks.size() && !nextWindow())) {
        return false;
    }
    const std::size_t end =
        std::min(chunks.size(), chunkCursor_ + chunk_budget);
    for (std::size_t c = chunkCursor_; c < end; ++c) {
        for (Lane &lane : lanes_) {
            replayChunk(lane, chunks[c]);
        }
    }
    chunkCursor_ = end;
    return true;
}

std::vector<SimResult>
BatchedReplay::finish()
{
    if (!begun_) {
        GENCACHE_PANIC("finish() before begin()");
    }
    // Drain whatever the stepper left unplayed. End states are
    // inspected by callers (stats snapshots, gencheck passes, identity
    // tests): fold every pending counter back into its fragment.
    while (step(log_.chunks().size())) {
    }
    for (Lane &lane : lanes_) {
        if (lane.fast) {
            lane.pipeline->flushFastCounts();
        }
    }
    std::vector<SimResult> results;
    results.reserve(lanes_.size());
    for (Lane &lane : lanes_) {
        if (checkpointHook_) {
            checkpointHook_(*lane.pipeline, log_.duration());
        }
        lane.result.managerStats = lane.pipeline->stats();
        lane.result.overhead = lane.account->breakdown();
        // The listeners die with the replay; leave none dangling.
        lane.pipeline->setListener(nullptr);
        results.push_back(lane.result);
    }
    return results;
}

} // namespace gencache::sim
