/**
 * @file
 * Unit tests for the dynamic optimizer runtime: bb cache, trace-head
 * counters, NET trace construction, linking, and execution residency.
 */

#include <gtest/gtest.h>

#include <vector>

#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/program_builder.h"
#include "guest/synthetic_program.h"
#include "runtime/bb_cache.h"
#include "runtime/linker.h"
#include "runtime/runtime.h"
#include "runtime/trace_head.h"

namespace gencache::runtime {
namespace {

TEST(BasicBlockCache, CopiesOnceThenHits)
{
    BasicBlockCache cache;
    cache.ensureCapacity(4);
    EXPECT_FALSE(cache.contains(2));
    cache.fetch(2, /*size_bytes=*/12);
    cache.fetch(2, 12);
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.stats().copies, 1u);
    EXPECT_EQ(cache.stats().copiedBytes, 12u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.blockCount(), 1u);
    EXPECT_EQ(cache.usedBytes(), 12u);
}

TEST(BasicBlockCache, InvalidateByModule)
{
    // Two mapped modules own disjoint dense id ranges; unloading one
    // drops exactly the resident blocks of its range.
    guest::GuestProgram program;
    guest::AddressSpace space;
    std::vector<guest::GuestModule *> modules;
    for (isa::GuestAddr base : {0x400, 0x800}) {
        guest::GuestModule &module = program.addModule(
            base == 0x400 ? "main.exe" : "lib.dll", base);
        guest::ModuleBuilder mb(module);
        guest::BlockLabel entry = mb.createBlock();
        guest::BlockLabel next = mb.createBlock();
        mb.at(entry).nop().jump(next);
        mb.at(next).halt();
        mb.finalize();
        space.map(module);
        modules.push_back(&module);
    }

    BasicBlockCache cache;
    cache.ensureCapacity(space.blockIndex().blockLimit());
    std::uint64_t bytes[2] = {0, 0};
    for (std::size_t m = 0; m < modules.size(); ++m) {
        for (const auto &[start, block] : modules[m]->blocks()) {
            cache.fetch(space.blockIdAt(start), block.sizeBytes());
            bytes[m] += block.sizeBytes();
        }
    }

    guest::BlockId first = 0;
    guest::BlockId last = 0;
    ASSERT_TRUE(space.moduleBlockRange(modules[0]->id(), first, last));
    cache.invalidateRange(first, last);
    for (const auto &[start, block] : modules[0]->blocks()) {
        EXPECT_FALSE(cache.contains(space.blockIdAt(start)));
    }
    for (const auto &[start, block] : modules[1]->blocks()) {
        EXPECT_TRUE(cache.contains(space.blockIdAt(start)));
    }
    EXPECT_EQ(cache.stats().invalidations, modules[0]->blocks().size());
    EXPECT_EQ(cache.usedBytes(), bytes[1]);
}

TEST(TraceHeadTable, ThresholdFires)
{
    TraceHeadTable heads(3);
    heads.ensureCapacity(8);
    heads.markHead(4, TraceHeadKind::BackwardBranchTarget);
    EXPECT_TRUE(heads.isHead(4));
    EXPECT_FALSE(heads.recordExecution(4)); // 1
    EXPECT_FALSE(heads.recordExecution(4)); // 2
    EXPECT_TRUE(heads.recordExecution(4));  // 3: fire
    EXPECT_FALSE(heads.recordExecution(4)); // only fires once
}

TEST(TraceHeadTable, NonHeadsNeverFire)
{
    TraceHeadTable heads(1);
    heads.ensureCapacity(8);
    EXPECT_FALSE(heads.recordExecution(7));
    EXPECT_EQ(heads.count(7), 0u);
    EXPECT_EQ(heads.count(100), 0u); // beyond the table: not a head
}

TEST(TraceHeadTable, RemoveResets)
{
    TraceHeadTable heads(2);
    heads.ensureCapacity(8);
    heads.markHead(4, TraceHeadKind::TraceExit);
    heads.recordExecution(4);
    heads.remove(4);
    EXPECT_FALSE(heads.isHead(4));
    // Re-detection after the trace is deleted/evicted: the head is
    // re-marked and must count up from zero to fire again.
    heads.markHead(4, TraceHeadKind::TraceExit);
    EXPECT_EQ(heads.count(4), 0u);
    EXPECT_FALSE(heads.recordExecution(4)); // 1
    EXPECT_TRUE(heads.recordExecution(4));  // 2: fires again
}

TEST(TraceHeadTable, ThresholdMinusOneDoesNotFire)
{
    TraceHeadTable heads(4);
    heads.ensureCapacity(8);
    heads.markHead(4, TraceHeadKind::BackwardBranchTarget);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(heads.recordExecution(4));
    }
    EXPECT_EQ(heads.count(4), 3u); // threshold - 1: still counting
    EXPECT_TRUE(heads.recordExecution(4));
}

TEST(TraceHeadTable, RemoveNonHeadIsNoOp)
{
    TraceHeadTable heads(2);
    heads.ensureCapacity(8);
    heads.markHead(4, TraceHeadKind::TraceExit);
    heads.remove(7); // never marked: must not disturb anything
    EXPECT_EQ(heads.headCount(), 1u);
    EXPECT_TRUE(heads.isHead(4));
    heads.remove(7); // idempotent
    EXPECT_EQ(heads.headCount(), 1u);
}

TEST(TraceHeadTable, RemoveRangeDropsOnlyRange)
{
    TraceHeadTable heads(2);
    heads.ensureCapacity(8);
    heads.markHead(2, TraceHeadKind::BackwardBranchTarget);
    heads.markHead(4, TraceHeadKind::TraceExit);
    heads.markHead(6, TraceHeadKind::TraceExit);
    heads.removeRange(3, 6); // [first, last): keeps 2 and 6
    EXPECT_TRUE(heads.isHead(2));
    EXPECT_FALSE(heads.isHead(4));
    EXPECT_TRUE(heads.isHead(6));
    EXPECT_EQ(heads.headCount(), 2u);
}

TEST(DenseTraceHeadTable, MirrorsHashTableContract)
{
    // Marking is idempotent: a second mark neither resets the count
    // nor adds a head.
    TraceHeadTable heads(3);
    heads.ensureCapacity(8);
    heads.markHead(2, TraceHeadKind::BackwardBranchTarget);
    EXPECT_TRUE(heads.isHead(2));
    EXPECT_FALSE(heads.isHead(3));
    EXPECT_FALSE(heads.recordExecution(2)); // 1
    heads.markHead(2, TraceHeadKind::TraceExit);
    EXPECT_FALSE(heads.recordExecution(2)); // 2: threshold - 1
    EXPECT_EQ(heads.count(2), 2u);
    EXPECT_TRUE(heads.recordExecution(2));  // 3: fire
    EXPECT_FALSE(heads.recordExecution(2)); // only fires once
    EXPECT_FALSE(heads.recordExecution(5)); // non-head never fires
    EXPECT_EQ(heads.headCount(), 1u);
}

TEST(DenseTraceHeadTable, RemoveAndRangeSemantics)
{
    TraceHeadTable heads(2);
    heads.ensureCapacity(8);
    heads.markHead(1, TraceHeadKind::TraceExit);
    heads.recordExecution(1);
    heads.remove(1);
    EXPECT_FALSE(heads.isHead(1));
    heads.markHead(1, TraceHeadKind::TraceExit);
    EXPECT_EQ(heads.count(1), 0u); // re-marking restarts from zero
    heads.remove(6);               // non-head: no-op
    EXPECT_EQ(heads.headCount(), 1u);
    heads.markHead(4, TraceHeadKind::BackwardBranchTarget);
    heads.removeRange(0, 4); // drops 1, keeps 4
    EXPECT_FALSE(heads.isHead(1));
    EXPECT_TRUE(heads.isHead(4));
    EXPECT_EQ(heads.headCount(), 1u);
    heads.ensureCapacity(16); // growing keeps existing heads
    EXPECT_TRUE(heads.isHead(4));
    EXPECT_FALSE(heads.isHead(12));
}

TEST(TraceBuilder, RecordsPathAndExits)
{
    TraceBuilder builder;
    builder.begin(1, 0x400, 0);
    ASSERT_TRUE(builder.active());

    isa::BasicBlock a(0x400);
    a.append(isa::makeBranchNz(1, 0x500)); // taken path goes to 0x500
    builder.append(a, 0x500);

    isa::BasicBlock b(0x500);
    b.append(isa::makeJump(0x400));
    builder.append(b, 0x400);

    Trace trace = builder.finish();
    EXPECT_EQ(trace.blockCount(), 2u);
    // Side exit: the not-taken fall-through of block a (0x406), plus
    // the final continuation (0x400).
    ASSERT_EQ(trace.exitTargets.size(), 2u);
    EXPECT_EQ(trace.exitTargets[0], 0x406u);
    EXPECT_EQ(trace.exitTargets[1], 0x400u);
    // Size: code bytes + one stub per conditional + final stub.
    EXPECT_EQ(trace.sizeBytes,
              a.sizeBytes() + b.sizeBytes() + 2 * kExitStubBytes);
}

TEST(TraceBuilder, IndirectFinalExitNotRecorded)
{
    TraceBuilder builder;
    builder.begin(2, 0x400, 0);
    isa::BasicBlock a(0x400);
    a.append(isa::makeReturn());
    builder.append(a, 0x999);
    Trace trace = builder.finish();
    EXPECT_TRUE(trace.exitTargets.empty());
}

TEST(TraceLinker, LinksBothDirections)
{
    TraceLinker linker;
    Trace first;
    first.id = 1;
    first.slot = 1;
    first.entry = 0x400;
    first.exitTargets = {0x500};
    Trace second;
    second.id = 2;
    second.slot = 2;
    second.entry = 0x500;
    second.exitTargets = {0x400};

    linker.onTraceInserted(first);
    EXPECT_EQ(linker.linkCount(), 0u); // 0x500 not resident yet
    linker.onTraceInserted(second);
    EXPECT_TRUE(linker.linked(1, 2));
    EXPECT_TRUE(linker.linked(2, 1));
    EXPECT_EQ(linker.linkCount(), 2u);
    EXPECT_EQ(linker.traceAt(0x400), 1u);

    linker.onTraceEvicted(1);
    EXPECT_FALSE(linker.linked(2, 1));
    EXPECT_EQ(linker.traceAt(0x400), cache::kInvalidTrace);
    EXPECT_EQ(linker.stats().linksUnpatched, 2u);
}

TEST(TraceLinker, SelfLinkForLoopTraces)
{
    // A loop trace whose exit returns to its own entry must be
    // self-linked, so iteration does not round-trip the dispatcher.
    TraceLinker linker;
    Trace loop;
    loop.id = 9;
    loop.slot = 9;
    loop.entry = 0x400;
    loop.exitTargets = {0x400};
    linker.onTraceInserted(loop);
    EXPECT_TRUE(linker.linked(9, 9));
    EXPECT_EQ(linker.linkCount(), 1u);
    linker.onTraceEvicted(9);
    EXPECT_EQ(linker.linkCount(), 0u);
}

TEST(TraceLinker, MoveCountsRelocation)
{
    TraceLinker linker;
    Trace first;
    first.id = 1;
    first.slot = 1;
    first.entry = 0x400;
    first.exitTargets = {0x500};
    Trace second;
    second.id = 2;
    second.slot = 2;
    second.entry = 0x500;
    linker.onTraceInserted(first);
    linker.onTraceInserted(second);
    std::uint64_t patched_before = linker.stats().linksPatched;
    linker.onTraceMoved(2);
    EXPECT_EQ(linker.stats().relocations, 1u);
    EXPECT_GT(linker.stats().linksPatched, patched_before);
}

class RuntimeFixture : public ::testing::Test
{
  protected:
    void
    buildAndRun(cache::TierPipeline &manager,
                std::uint32_t threshold = 10)
    {
        guest::SyntheticProgramConfig config;
        config.seed = 21;
        config.phases = 2;
        config.phaseIterations = 30;
        config.innerIterations = 20;
        config.dllCount = 2;
        synthetic_ = guest::generateSyntheticProgram(config);
        for (const auto &module : synthetic_.program.modules()) {
            space_.map(*module);
        }
        runtime_ =
            std::make_unique<Runtime>(space_, manager, threshold);
        runtime_->start(synthetic_.program.entry());
        runtime_->run();
        ASSERT_TRUE(runtime_->finished());
    }

    guest::SyntheticProgram synthetic_;
    guest::AddressSpace space_;
    std::unique_ptr<Runtime> runtime_;
};

TEST_F(RuntimeFixture, BuildsTracesAndExecutesFromCache)
{
    cache::UnifiedCacheManager manager(256 * kKiB);
    buildAndRun(manager);
    const RuntimeStats &stats = runtime_->stats();
    EXPECT_GT(stats.tracesBuilt, 0u);
    EXPECT_GT(stats.traceExecutions, 0u);
    EXPECT_GT(stats.instructionsInTraces, 0u);
    // "The vast majority of the program's execution should occur in
    // the code cache": with a roomy cache and hot loops, most retired
    // instructions come from traces.
    EXPECT_GT(stats.cacheResidency(), 0.5);
}

TEST_F(RuntimeFixture, LogIsReplayableAndValid)
{
    cache::UnifiedCacheManager manager(256 * kKiB);
    buildAndRun(manager);
    runtime_->log().validate();
    EXPECT_GT(runtime_->log().createdTraceCount(), 0u);
    EXPECT_EQ(runtime_->log().createdTraceCount(),
              runtime_->stats().tracesBuilt);
}

TEST_F(RuntimeFixture, WorksWithGenerationalManager)
{
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(64 * kKiB, 0.45,
                                                   0.10, 1);
    cache::GenerationalCacheManager manager(config);
    buildAndRun(manager);
    EXPECT_GT(runtime_->stats().traceExecutions, 0u);
    manager.validate();
}

TEST_F(RuntimeFixture, TinyCacheForcesRegenerations)
{
    // A cache far smaller than the trace volume must thrash.
    cache::UnifiedCacheManager manager(2 * kKiB);
    buildAndRun(manager);
    EXPECT_GT(manager.stats().misses, 0u);
    EXPECT_GT(runtime_->stats().traceRegenerations, 0u);
}

TEST_F(RuntimeFixture, ModuleUnloadEvictsTraces)
{
    cache::UnifiedCacheManager manager(256 * kKiB);
    guest::SyntheticProgramConfig config;
    config.seed = 33;
    config.phases = 2;
    config.phaseIterations = 30;
    config.innerIterations = 20;
    config.dllCount = 1;
    synthetic_ = guest::generateSyntheticProgram(config);
    for (const auto &module : synthetic_.program.modules()) {
        space_.map(*module);
    }
    Runtime runtime(space_, manager, 10);
    runtime.start(synthetic_.program.entry());
    runtime.run();
    ASSERT_TRUE(runtime.finished());
    ASSERT_FALSE(synthetic_.dllLastPhase.empty());

    guest::ModuleId dll = synthetic_.dllLastPhase[0].first;
    std::uint64_t before = manager.stats().unmapDeletions;
    runtime.unloadModule(dll);
    EXPECT_GT(manager.stats().unmapDeletions, before);
    // All events (including the unload) still form a valid log.
    runtime.log().validate();
}

TEST_F(RuntimeFixture, HeadRedetectionAfterTraceDeleted)
{
    // After a module unload deletes its traces (and drops its head
    // counters), remapping the module and re-running must re-detect
    // the heads from scratch and build fresh traces for them.
    cache::UnifiedCacheManager manager(256 * kKiB);
    guest::SyntheticProgramConfig config;
    config.seed = 33;
    config.phases = 2;
    config.phaseIterations = 30;
    config.innerIterations = 20;
    config.dllCount = 1;
    synthetic_ = guest::generateSyntheticProgram(config);
    for (const auto &module : synthetic_.program.modules()) {
        space_.map(*module);
    }
    Runtime runtime(space_, manager, 10);
    runtime.start(synthetic_.program.entry());
    runtime.run();
    ASSERT_TRUE(runtime.finished());
    ASSERT_FALSE(synthetic_.dllLastPhase.empty());

    guest::ModuleId dll = synthetic_.dllLastPhase[0].first;
    std::uint64_t built_before = runtime.stats().tracesBuilt;
    runtime.unloadModule(dll);
    for (const auto &module : synthetic_.program.modules()) {
        if (module->id() == dll) {
            runtime.loadModule(*module);
        }
    }
    runtime.start(synthetic_.program.entry());
    runtime.run();
    ASSERT_TRUE(runtime.finished());
    // The dll's traces were deleted with the unload, so the second
    // run must have re-counted its heads up to the threshold and
    // rebuilt at least one trace for the remapped code.
    EXPECT_GT(runtime.stats().tracesBuilt, built_before);
    runtime.log().validate();
}

TEST_F(RuntimeFixture, LoopsTailChainWithoutDispatch)
{
    // With self-linked loop traces, trace executions should vastly
    // outnumber dispatcher round trips (context switches).
    cache::UnifiedCacheManager manager(256 * kKiB);
    buildAndRun(manager);
    const RuntimeStats &stats = runtime_->stats();
    ASSERT_GT(stats.traceExecutions, 100u);
    EXPECT_LT(stats.contextSwitches, stats.traceExecutions / 2);
}

TEST_F(RuntimeFixture, DeterministicAcrossRuns)
{
    std::uint64_t first_instructions = 0;
    std::uint64_t first_traces = 0;
    for (int round = 0; round < 2; ++round) {
        guest::AddressSpace space;
        guest::SyntheticProgramConfig config;
        config.seed = 77;
        guest::SyntheticProgram synthetic =
            guest::generateSyntheticProgram(config);
        for (const auto &module : synthetic.program.modules()) {
            space.map(*module);
        }
        cache::UnifiedCacheManager manager(64 * kKiB);
        Runtime runtime(space, manager, 10);
        runtime.start(synthetic.program.entry());
        runtime.run();
        if (round == 0) {
            first_instructions = runtime.stats().totalInstructions();
            first_traces = runtime.stats().tracesBuilt;
        } else {
            EXPECT_EQ(runtime.stats().totalInstructions(),
                      first_instructions);
            EXPECT_EQ(runtime.stats().tracesBuilt, first_traces);
        }
    }
}

} // namespace
} // namespace gencache::runtime
