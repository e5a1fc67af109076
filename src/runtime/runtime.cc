#include "runtime/runtime.h"

#include "support/logging.h"

namespace gencache::runtime {

Runtime::Runtime(guest::AddressSpace &space,
                 cache::TierPipeline &manager,
                 std::uint32_t trace_threshold)
    : cache::CacheEventListener(/*wants_hits=*/false,
                                /*wants_misses=*/false),
      space_(space), manager_(manager), interp_(space),
      heads_(trace_threshold)
{
    manager_.setListener(this);
    std::uint64_t footprint = 0;
    for (const guest::GuestModule *module : space_.mappedModules()) {
        log_.append(tracelog::Event::moduleLoad(0, module->id()));
        log_.setModuleUid(module->id(), module->uid());
        footprint += module->sizeBytes();
    }
    log_.setFootprintBytes(footprint);
    syncBlockCapacity();
}

void
Runtime::syncBlockCapacity()
{
    guest::BlockId limit = space_.blockIndex().blockLimit();
    heads_.ensureCapacity(limit);
    bbCache_.ensureCapacity(limit);
    if (traceIdOfBlock_.size() < limit) {
        traceIdOfBlock_.resize(limit, cache::kInvalidTrace);
        slotOfBlock_.resize(limit, kInvalidSlot);
    }
}

void
Runtime::loadModule(const guest::GuestModule &module)
{
    space_.map(module);
    syncBlockCapacity();
    log_.append(tracelog::Event::moduleLoad(now(), module.id()));
    log_.setModuleUid(module.id(), module.uid());
    log_.setFootprintBytes(log_.footprintBytes() + module.sizeBytes());
    if (checkpointHook_) {
        checkpointHook_(*this);
    }
}

void
Runtime::unloadModule(guest::ModuleId module)
{
    // Capture the module's dense id range before the unmap retires it.
    guest::BlockId first = 0;
    guest::BlockId last = 0;
    bool ranged = space_.moduleBlockRange(module, first, last);

    // Order matters: the manager's invalidation fires onEvict events
    // that unlink evicted traces, so the linker must still know them.
    manager_.invalidateModule(module, now());

    for (auto it = traces_.begin(); it != traces_.end();) {
        if (it->second.module == module) {
            guest::BlockId bid = space_.blockIdAt(it->second.entry);
            if (bid != guest::kInvalidBlockId) {
                traceIdOfBlock_[bid] = cache::kInvalidTrace;
                slotOfBlock_[bid] = kInvalidSlot;
            }
            traceBySlot_[it->second.slot] = nullptr;
            it = traces_.erase(it);
        } else {
            ++it;
        }
    }
    // Head counters in the unloaded range are dropped too — they must
    // not survive into a remap.
    if (ranged) {
        bbCache_.invalidateRange(first, last);
        heads_.removeRange(first, last);
    }
    space_.unmap(module);
    log_.append(tracelog::Event::moduleUnload(now(), module));
    if (checkpointHook_) {
        checkpointHook_(*this);
    }
}

void
Runtime::start(isa::GuestAddr entry)
{
    state_.reset(entry);
    started_ = true;
}

std::uint64_t
Runtime::run(std::uint64_t max_instructions)
{
    if (!started_) {
        GENCACHE_PANIC("Runtime::run before start()");
    }
    std::uint64_t begin = interp_.instructionsRetired();
    while (!state_.halted &&
           interp_.instructionsRetired() - begin < max_instructions) {
        dispatch();
    }
    log_.setDuration(now());
    if (checkpointHook_) {
        checkpointHook_(*this);
    }
    return interp_.instructionsRetired() - begin;
}

void
Runtime::dispatch()
{
    guest::BlockId bid = space_.blockIdAt(state_.pc);
    cache::TraceId tid = bid != guest::kInvalidBlockId
                             ? traceIdOfBlock_[bid]
                             : cache::kInvalidTrace;
    if (tid == cache::kInvalidTrace) {
        interpretBlock(bid);
        return;
    }
    if (!manager_.lookup(tid, now())) {
        // Code cache miss: regenerate the trace (§6.2's miss cost: two
        // context switches, a regeneration, and a copy).
        if (regenerate(tid)) {
            ++stats_.traceRegenerations;
        } else {
            // Cannot be cached right now: fall back to the interpreter
            // for this block.
            interpretBlock(bid);
            return;
        }
    }
    ++stats_.contextSwitches; // dispatcher -> code cache
    TraceSlot current = slotOfBlock_[bid];
    while (current != kInvalidSlot && !state_.halted) {
        current = executeTrace(current);
    }
    ++stats_.contextSwitches; // code cache -> dispatcher
}

TraceSlot
Runtime::executeTrace(TraceSlot slot)
{
    const Trace *trace = traceBySlot_[slot];
    if (trace == nullptr) {
        GENCACHE_PANIC("executing dropped trace slot {}", slot);
    }
    if (state_.pc != trace->entry) {
        GENCACHE_PANIC("trace {} entered at {} (entry {})", trace->id,
                       state_.pc, trace->entry);
    }
    ++stats_.traceExecutions;
    log_.append(tracelog::Event::traceExec(now(), trace->id));

    // The whole path runs out of the trace's flattened predecoded
    // stream — no per-block lookups, no per-block call overhead.
    interp::TraceResult result = interp_.executeTrace(
        state_, trace->stream.data(), trace->streamEnd.data(),
        trace->blockAddrs.data() + 1, trace->blockIds.size());
    stats_.instructionsInTraces += result.instructions;
    if (result.halted) {
        return kInvalidSlot;
    }

    // Trace exit: direct chaining. The linker's cached successor slot
    // resolves "is this exit patched to a resident trace" in one scan
    // of the trace's few exit targets — no dispatcher lookup. Otherwise
    // control returns to the dispatcher and the exit becomes a head.
    isa::GuestAddr target = result.next;
    TraceSlot next = linker_.cachedSuccessor(slot, target);
    if (next != kInvalidSlot &&
        manager_.lookup(traceBySlot_[next]->id, now())) {
        return next;
    }
    guest::BlockId bid = space_.blockIdAt(target);
    if (bid != guest::kInvalidBlockId &&
        traceIdOfBlock_[bid] == cache::kInvalidTrace) {
        heads_.markHead(bid, TraceHeadKind::TraceExit);
    }
    return kInvalidSlot;
}

void
Runtime::interpretBlock(guest::BlockId block)
{
    if (block == guest::kInvalidBlockId) {
        GENCACHE_PANIC("guest pc {} is not a mapped block start ({})",
                       state_.pc, space_.describeAddr(state_.pc));
    }
    bbCache_.fetch(block, space_.blockIndex().meta(block).sizeBytes);

    if (heads_.recordExecution(block)) {
        buildTrace(block);
        return;
    }

    interp::BlockResult result = interp_.executeBlock(state_, block);
    stats_.instructionsInterpreted += result.instructions;
    ++stats_.blocksInterpreted;
    if (!result.halted && result.backwardTransfer) {
        // Target of a backward branch: candidate loop head (§4.1).
        guest::BlockId next_bid = space_.blockIdAt(result.next);
        if (next_bid != guest::kInvalidBlockId &&
            traceIdOfBlock_[next_bid] == cache::kInvalidTrace) {
            heads_.markHead(next_bid,
                            TraceHeadKind::BackwardBranchTarget);
        }
    }
}

void
Runtime::buildTrace(guest::BlockId head)
{
    heads_.remove(head);

    cache::TraceId known = traceIdOfBlock_[head];
    if (known != cache::kInvalidTrace) {
        // The trace exists but may have been evicted; reinstall it.
        if (!manager_.contains(known) && regenerate(known)) {
            ++stats_.traceRegenerations;
        }
        return;
    }

    isa::GuestAddr entry = state_.pc;
    const guest::GuestModule *module = space_.moduleAt(entry);
    if (module == nullptr) {
        GENCACHE_PANIC("trace head {} is not mapped", entry);
    }
    // Canonical identity: (module uid, module-relative entry offset).
    // Deterministic per code location, equal in every process mapping
    // the module — the key the cross-process shared tier matches on.
    isa::GuestAddr offset = entry - module->baseAddr();
    if (offset > 0xffffffffULL) {
        GENCACHE_PANIC("trace entry offset {} exceeds 32 bits in '{}'",
                       offset, module->name());
    }
    cache::TraceId tid = cache::canonicalTraceId(
        module->uid(), static_cast<std::uint32_t>(offset));
    builder_.begin(tid, entry, module->id());
    std::vector<const isa::BasicBlock *> path;
    std::vector<guest::BlockId> path_ids;

    // Trace generation mode: execute and record until a stop
    // condition (§4.1): backward branch, existing trace (head),
    // indirect transfer, module boundary, or the block cap. This is
    // a cold path (once per built trace).
    guest::BlockId block = head;
    while (true) {
        isa::GuestAddr pc = state_.pc;
        const isa::BasicBlock *source = space_.blockAt(pc);
        if (block == guest::kInvalidBlockId || source == nullptr) {
            GENCACHE_PANIC("trace generation at unmapped pc {}", pc);
        }
        bbCache_.fetch(block, source->sizeBytes());
        interp::BlockResult result = interp_.executeBlock(state_, block);
        stats_.instructionsInterpreted += result.instructions;
        ++stats_.blocksInterpreted;
        builder_.append(*source, result.next);
        path.push_back(source);
        path_ids.push_back(block);

        if (result.halted) {
            break;
        }
        if (isa::isIndirect(source->terminator().opcode)) {
            break;
        }
        if (result.backwardTransfer) {
            break;
        }
        block = space_.blockIdAt(result.next);
        if (block != guest::kInvalidBlockId &&
            (traceIdOfBlock_[block] != cache::kInvalidTrace ||
             heads_.isHead(block))) {
            break;
        }
        const guest::GuestModule *next_module =
            space_.moduleAt(result.next);
        if (next_module == nullptr ||
            next_module->id() != module->id()) {
            break;
        }
        if (builder_.blockCount() >= kMaxTraceBlocks) {
            break;
        }
    }

    Trace trace = builder_.finish();

    if (optimizeTraces_) {
        // Optimize the superblock; the cache stores the optimized
        // code, so the fragment size is the optimized size (plus the
        // unchanged exit stubs).
        opt::Superblock superblock = opt::buildSuperblock(path);
        opt::OptResult opt_result = optimizer_.optimize(superblock);
        ++stats_.tracesOptimized;
        stats_.optimizerBytesSaved += opt_result.bytesSaved();
        stats_.optimizerInstsRemoved +=
            opt_result.instsBefore - opt_result.instsAfter;
        // One stub per side exit plus the fall-off-the-end stub,
        // mirroring TraceBuilder's accounting.
        std::uint32_t stubs =
            kExitStubBytes *
            static_cast<std::uint32_t>(
                superblock.sideExitCount() + 1);
        trace.sizeBytes = superblock.codeBytes() + stubs;
    }

    // The dense block-id path, so trace execution reads the
    // predecoded streams directly.
    trace.blockIds = std::move(path_ids);

    Trace &stored = registerTrace(tid, std::move(trace));
    ++stats_.tracesBuilt;
    log_.append(tracelog::Event::traceCreate(now(), tid,
                                             stored.sizeBytes,
                                             stored.module));
    installTrace(stored);
}

Trace &
Runtime::registerTrace(cache::TraceId id, Trace trace)
{
    // Flatten the path's predecoded blocks into one contiguous stream
    // (the trace-cache "emitted code" that trace execution runs from).
    const guest::BlockIndex &index = space_.blockIndex();
    trace.stream.clear();
    trace.streamEnd.clear();
    for (guest::BlockId block : trace.blockIds) {
        trace.stream.insert(trace.stream.end(),
                            index.instBegin(block),
                            index.instEnd(block));
        trace.streamEnd.push_back(
            static_cast<std::uint32_t>(trace.stream.size()));
    }

    // Allocate the dense process-local slot the hot paths index by
    // (canonical ids are sparse, so they cannot index flat arrays).
    trace.slot = static_cast<TraceSlot>(traceBySlot_.size());

    isa::GuestAddr entry = trace.entry;
    auto [it, inserted] = traces_.emplace(id, std::move(trace));
    if (!inserted) {
        GENCACHE_PANIC("canonical trace id {} registered twice", id);
    }
    guest::BlockId bid = space_.blockIdAt(entry);
    if (bid != guest::kInvalidBlockId) {
        traceIdOfBlock_[bid] = id;
        slotOfBlock_[bid] = it->second.slot;
    }
    traceBySlot_.push_back(&it->second);
    return it->second;
}

bool
Runtime::regenerate(cache::TraceId id)
{
    auto it = traces_.find(id);
    if (it == traces_.end()) {
        return false;
    }
    return installTrace(it->second);
}

bool
Runtime::installTrace(const Trace &trace)
{
    if (!manager_.insert(trace.id, trace.sizeBytes, trace.module,
                         now())) {
        return false;
    }
    linker_.onTraceInserted(trace);
    return true;
}

void
Runtime::onEvict(const cache::Fragment &frag, cache::Generation,
                 cache::EvictReason reason, TimeUs)
{
    if (cache::isDeletion(reason)) {
        linker_.onTraceEvicted(frag.id);
    }
}

void
Runtime::onPromote(const cache::Fragment &frag, cache::Generation,
                   cache::Generation, TimeUs)
{
    linker_.onTraceMoved(frag.id);
}

} // namespace gencache::runtime
