/**
 * @file
 * Tests of the gencheck static analyzer (src/analysis).
 *
 * Two kinds: golden tests asserting a clean workload yields zero
 * diagnostics, and negative tests that corrupt one specific invariant
 * and assert the exact check ID the analyzer reports for it.
 */

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cache_passes.h"
#include "analysis/cfg_passes.h"
#include "analysis/checker.h"
#include "analysis/frontend_passes.h"
#include "analysis/link_passes.h"
#include "analysis/pass.h"
#include "analysis/superblock_passes.h"
#include "codecache/generational_cache.h"
#include "codecache/list_cache.h"
#include "codecache/unified_cache.h"
#include "guest/synthetic_program.h"
#include "runtime/linker.h"
#include "runtime/runtime.h"
#include "support/units.h"

namespace {

using namespace gencache;
using analysis::DiagnosticEngine;
using analysis::Severity;

/** Scoped GENCACHE_CHECK override that restores the prior value. */
class ScopedCheckEnv
{
  public:
    explicit ScopedCheckEnv(const char *value)
    {
        const char *old = std::getenv("GENCACHE_CHECK");
        had_ = old != nullptr;
        if (had_) {
            saved_ = old;
        }
        if (value != nullptr) {
            ::setenv("GENCACHE_CHECK", value, 1);
        } else {
            ::unsetenv("GENCACHE_CHECK");
        }
    }

    ~ScopedCheckEnv()
    {
        if (had_) {
            ::setenv("GENCACHE_CHECK", saved_.c_str(), 1);
        } else {
            ::unsetenv("GENCACHE_CHECK");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

/** Three-block program: A (cond branch to C, falls through to B),
 *  B (jump back to A), C (halt). Entry at A. */
struct TinyProgram
{
    guest::GuestProgram program;
    guest::ModuleId module = guest::kInvalidModule;
    isa::GuestAddr a = 0, b = 0, c = 0;
};

TinyProgram
makeTinyProgram()
{
    TinyProgram tiny;
    tiny.a = 0x1000;
    tiny.b = tiny.a + isa::opcodeSize(isa::Opcode::MovImm) +
             isa::opcodeSize(isa::Opcode::BranchNz);
    tiny.c = tiny.b + isa::opcodeSize(isa::Opcode::Jump);

    guest::GuestModule &main_mod =
        tiny.program.addModule("main.exe", tiny.a);
    tiny.module = main_mod.id();

    isa::BasicBlock block_a(tiny.a);
    block_a.append(isa::makeMovImm(1, 0));
    block_a.append(isa::makeBranchNz(1, tiny.c));
    main_mod.addBlock(block_a);

    isa::BasicBlock block_b(tiny.b);
    block_b.append(isa::makeJump(tiny.a));
    main_mod.addBlock(block_b);

    isa::BasicBlock block_c(tiny.c);
    block_c.append(isa::makeHalt());
    main_mod.addBlock(block_c);

    tiny.program.setEntry(tiny.a);
    return tiny;
}

runtime::Trace
makeTrace(const TinyProgram &tiny,
          std::vector<isa::GuestAddr> path,
          std::vector<isa::GuestAddr> exits)
{
    runtime::Trace trace;
    trace.id = 1;
    trace.entry = path.empty() ? 0 : path.front();
    trace.module = tiny.module;
    trace.blockAddrs = std::move(path);
    trace.sizeBytes = 64;
    trace.exitTargets = std::move(exits);
    return trace;
}

/** FifoCache whose protected slab state the tests can corrupt. */
class CorruptibleFifo : public cache::FifoCache
{
  public:
    using FifoCache::FifoCache;

    void breakFreeList() { freeHead_ = 12345; }
    void breakRing() { nodes_[head_].next = head_; }
    void breakBytes() { used_ += 100; }
};

cache::Fragment
makeFragment(cache::TraceId id, std::uint32_t size_bytes)
{
    cache::Fragment frag;
    frag.id = id;
    frag.sizeBytes = size_bytes;
    frag.module = 0;
    return frag;
}

// ---------------------------------------------------------------------
// Golden: a clean live workload yields zero diagnostics.
// ---------------------------------------------------------------------

TEST(Analysis, CleanLiveWorkloadHasNoDiagnostics)
{
    guest::SyntheticProgramConfig config;
    config.seed = 7;
    config.phases = 3;
    config.phaseIterations = 40;
    config.innerIterations = 25;
    config.dllCount = 2;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    cache::GenerationalConfig cache_config =
        cache::GenerationalConfig::fromProportions(
            4 * kKiB, 0.45, 0.10, /*threshold=*/1);
    cache::GenerationalCacheManager manager(cache_config);
    runtime::Runtime runtime(space, manager, /*trace_threshold=*/10);
    runtime.start(synthetic.program.entry());
    runtime.run();
    ASSERT_TRUE(runtime.finished());

    DiagnosticEngine engine =
        analysis::checkRuntime(synthetic.program, runtime);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
    EXPECT_NE(engine.jsonReport().find("\"error\": 0"),
              std::string::npos);
}

TEST(Analysis, TinyProgramIsCfgClean)
{
    TinyProgram tiny = makeTinyProgram();
    DiagnosticEngine engine;
    analysis::checkProgram(tiny.program, engine);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

// ---------------------------------------------------------------------
// CFG negatives.
// ---------------------------------------------------------------------

TEST(Analysis, DanglingBranchTargetIsReported)
{
    TinyProgram tiny = makeTinyProgram();
    guest::GuestModule *main_mod =
        tiny.program.findModule(tiny.module);
    ASSERT_NE(main_mod, nullptr);
    isa::BasicBlock bad(main_mod->endAddr());
    bad.append(isa::makeJump(0xdead0));
    main_mod->addBlock(bad);

    DiagnosticEngine engine;
    analysis::checkProgram(tiny.program, engine);
    EXPECT_TRUE(engine.hasCheck("cfg-dangling-target"))
        << engine.textReport();
    EXPECT_GT(engine.errorCount(), 0u);
}

TEST(Analysis, UnreachableBlockIsReported)
{
    TinyProgram tiny = makeTinyProgram();
    guest::GuestModule *main_mod =
        tiny.program.findModule(tiny.module);
    ASSERT_NE(main_mod, nullptr);
    isa::BasicBlock island(main_mod->endAddr());
    island.append(isa::makeHalt());
    main_mod->addBlock(island);

    DiagnosticEngine engine;
    analysis::checkProgram(tiny.program, engine);
    EXPECT_TRUE(engine.hasCheck("cfg-unreachable"))
        << engine.textReport();
    EXPECT_EQ(engine.errorCount(), 0u); // unreachable is a warning
}

TEST(Analysis, UnterminatedBlockIsReported)
{
    guest::GuestProgram program;
    guest::GuestModule &main_mod =
        program.addModule("main.exe", 0x2000);
    isa::BasicBlock entry_block(0x2000);
    entry_block.append(isa::makeHalt());
    main_mod.addBlock(entry_block);
    program.setEntry(0x2000);

    // addBlock() itself panics on unterminated blocks, so corrupt the
    // module behind its back the way a buggy mutation pass would.
    isa::BasicBlock open_block(0x3000);
    open_block.append(isa::makeMovImm(1, 3));
    auto &blocks = const_cast<std::map<isa::GuestAddr, isa::BasicBlock> &>(
        main_mod.blocks());
    blocks.emplace(isa::GuestAddr{0x3000}, std::move(open_block));

    DiagnosticEngine engine;
    analysis::checkProgram(program, engine);
    EXPECT_TRUE(engine.hasCheck("cfg-block-unterminated"))
        << engine.textReport();
}

TEST(Analysis, UnmappedEntryIsReported)
{
    TinyProgram tiny = makeTinyProgram();
    tiny.program.setEntry(0x5555);

    DiagnosticEngine engine;
    analysis::checkProgram(tiny.program, engine);
    EXPECT_TRUE(engine.hasCheck("cfg-entry-unmapped"))
        << engine.textReport();
}

// ---------------------------------------------------------------------
// Superblock negatives.
// ---------------------------------------------------------------------

TEST(Analysis, ValidTraceIsClean)
{
    TinyProgram tiny = makeTinyProgram();
    runtime::Trace trace =
        makeTrace(tiny, {tiny.a, tiny.b}, {tiny.c, tiny.a});
    DiagnosticEngine engine;
    analysis::checkTrace(trace, tiny.program, nullptr, engine);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

TEST(Analysis, RepeatedPathBlockViolatesSingleEntry)
{
    TinyProgram tiny = makeTinyProgram();
    runtime::Trace trace =
        makeTrace(tiny, {tiny.a, tiny.b, tiny.a}, {tiny.c});
    DiagnosticEngine engine;
    analysis::checkTrace(trace, tiny.program, nullptr, engine);
    EXPECT_TRUE(engine.hasCheck("sb-multi-entry"))
        << engine.textReport();
    EXPECT_FALSE(engine.hasCheck("sb-broken-path"));
}

TEST(Analysis, DisconnectedPathIsReported)
{
    TinyProgram tiny = makeTinyProgram();
    // B jumps to A, so B -> C is not an edge the terminator allows.
    runtime::Trace trace =
        makeTrace(tiny, {tiny.b, tiny.c}, {tiny.a});
    DiagnosticEngine engine;
    analysis::checkTrace(trace, tiny.program, nullptr, engine);
    EXPECT_TRUE(engine.hasCheck("sb-broken-path"))
        << engine.textReport();
}

TEST(Analysis, BogusExitTargetIsReported)
{
    TinyProgram tiny = makeTinyProgram();
    runtime::Trace trace = makeTrace(tiny, {tiny.a}, {0x99990});
    DiagnosticEngine engine;
    analysis::checkTrace(trace, tiny.program, nullptr, engine);
    EXPECT_TRUE(engine.hasCheck("sb-exit-invalid"))
        << engine.textReport();
    EXPECT_FALSE(engine.hasCheck("sb-multi-entry"));
}

TEST(Analysis, ExitToLiveTraceEntryIsAccepted)
{
    TinyProgram tiny = makeTinyProgram();
    // 0x99990 is no program block, but a live trace starts there.
    runtime::TraceLinker linker;
    runtime::Trace other;
    other.id = 9;
    other.slot = 9;
    other.entry = 0x99990;
    linker.onTraceInserted(other);

    runtime::Trace trace = makeTrace(tiny, {tiny.a}, {0x99990});
    DiagnosticEngine engine;
    analysis::checkTrace(trace, tiny.program, &linker, engine);
    EXPECT_FALSE(engine.hasCheck("sb-exit-invalid"))
        << engine.textReport();
}

// ---------------------------------------------------------------------
// Link-graph negatives.
// ---------------------------------------------------------------------

TEST(Analysis, DanglingLinkAfterForcedEvictionIsReported)
{
    // Two linked traces; the cache then loses trace 2 without the
    // linker hearing about it (the bug unlink-on-evict must prevent).
    runtime::Trace a;
    a.id = 1;
    a.slot = 1;
    a.entry = 0x1000;
    a.exitTargets = {0x2000};
    runtime::Trace b;
    b.id = 2;
    b.slot = 2;
    b.entry = 0x2000;

    runtime::TraceLinker linker;
    linker.onTraceInserted(a);
    linker.onTraceInserted(b);
    ASSERT_TRUE(linker.linked(1, 2));

    cache::UnifiedCacheManager manager(64 * kKiB);
    ASSERT_TRUE(manager.insert(1, 100, 0, 0)); // trace 2 not resident

    analysis::AnalysisInput input;
    input.linker = &linker;
    input.manager = &manager;
    DiagnosticEngine engine;
    analysis::LinkGraphPass pass;
    engine.setCurrentPass(pass.name());
    pass.run(input, engine);

    EXPECT_TRUE(engine.hasCheck("link-dangling"))
        << engine.textReport();
    EXPECT_TRUE(engine.hasCheck("link-stale-node"));
    EXPECT_GT(engine.errorCount(), 0u);
}

TEST(Analysis, ConsistentLinkGraphIsClean)
{
    runtime::Trace a;
    a.id = 1;
    a.slot = 1;
    a.entry = 0x1000;
    a.exitTargets = {0x2000};
    runtime::Trace b;
    b.id = 2;
    b.slot = 2;
    b.entry = 0x2000;
    b.exitTargets = {0x1000};

    runtime::TraceLinker linker;
    linker.onTraceInserted(a);
    linker.onTraceInserted(b);

    cache::UnifiedCacheManager manager(64 * kKiB);
    ASSERT_TRUE(manager.insert(1, 100, 0, 0));
    ASSERT_TRUE(manager.insert(2, 100, 0, 0));

    analysis::AnalysisInput input;
    input.linker = &linker;
    input.manager = &manager;
    DiagnosticEngine engine;
    analysis::LinkGraphPass pass;
    engine.setCurrentPass(pass.name());
    pass.run(input, engine);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

// ---------------------------------------------------------------------
// Front-end fast-path checks (fe-*): direct-chaining exit caches and
// the dense block/dispatch mirrors.
// ---------------------------------------------------------------------

/** TraceLinker whose protected exit-cache state the tests corrupt. */
class CorruptibleLinker : public runtime::TraceLinker
{
  public:
    void corruptSlot(runtime::TraceSlot from, std::size_t exit,
                     runtime::TraceSlot value)
    {
        exitCache_[from].slots[exit] = value;
    }

    void corruptTargets(runtime::TraceSlot from)
    {
        exitCache_[from].targets.push_back(0xdead0);
        exitCache_[from].slots.push_back(runtime::kInvalidSlot);
    }

    void resurrectStaleCache(runtime::TraceSlot slot,
                             isa::GuestAddr target)
    {
        if (exitCache_.size() <= slot) {
            exitCache_.resize(slot + 1);
        }
        exitCache_[slot].targets = {target};
        exitCache_[slot].slots = {runtime::kInvalidSlot};
    }
};

/** Two mutually linked traces: id 1 in slot 1 at 0x1000 <-> id 2 in
 *  slot 2 at 0x2000. */
void
insertLinkedPair(runtime::TraceLinker &linker)
{
    runtime::Trace a;
    a.id = 1;
    a.slot = 1;
    a.entry = 0x1000;
    a.exitTargets = {0x2000, 0x3000};
    runtime::Trace b;
    b.id = 2;
    b.slot = 2;
    b.entry = 0x2000;
    b.exitTargets = {0x1000};
    linker.onTraceInserted(a);
    linker.onTraceInserted(b);
}

TEST(Analysis, ConsistentExitCachesAreClean)
{
    runtime::TraceLinker linker;
    insertLinkedPair(linker);
    ASSERT_TRUE(linker.linked(1, 2));
    ASSERT_EQ(linker.cachedSuccessor(1, 0x2000), 2u);
    ASSERT_EQ(linker.cachedSuccessor(1, 0x3000),
              runtime::kInvalidSlot);

    DiagnosticEngine engine;
    analysis::checkExitCaches(linker, engine);
    EXPECT_TRUE(engine.empty()) << engine.textReport();

    // Still clean after an eviction clears trace 2's cache and
    // unlinks 1 -> 2.
    linker.onTraceEvicted(2);
    DiagnosticEngine after;
    analysis::checkExitCaches(linker, after);
    EXPECT_TRUE(after.empty()) << after.textReport();
}

TEST(Analysis, CorruptedSuccessorSlotIsReported)
{
    CorruptibleLinker linker;
    insertLinkedPair(linker);

    // The patched 1 -> 2 edge exists, but the cached jump was lost.
    linker.corruptSlot(1, 0, runtime::kInvalidSlot);
    DiagnosticEngine engine;
    analysis::checkExitCaches(linker, engine);
    EXPECT_TRUE(engine.hasCheck("fe-exit-slot"))
        << engine.textReport();
}

TEST(Analysis, SlotWithoutPatchedEdgeIsReported)
{
    CorruptibleLinker linker;
    insertLinkedPair(linker);

    // Exit 0x3000 has no resident successor, yet a cached jump
    // appeared (a stale patch the dispatcher would blindly follow).
    linker.corruptSlot(1, 1, 2);
    DiagnosticEngine engine;
    analysis::checkExitCaches(linker, engine);
    EXPECT_TRUE(engine.hasCheck("fe-exit-slot"))
        << engine.textReport();
}

TEST(Analysis, ExitCacheShapeMismatchIsReported)
{
    CorruptibleLinker linker;
    insertLinkedPair(linker);

    linker.corruptTargets(2);
    DiagnosticEngine engine;
    analysis::checkExitCaches(linker, engine);
    EXPECT_TRUE(engine.hasCheck("fe-exit-shape"))
        << engine.textReport();
}

TEST(Analysis, StaleExitCacheAfterEvictionIsReported)
{
    CorruptibleLinker linker;
    insertLinkedPair(linker);
    linker.onTraceEvicted(2);

    // An eviction that failed to clear the evictee's cached jumps.
    linker.resurrectStaleCache(2, 0x1000);
    DiagnosticEngine engine;
    analysis::checkExitCaches(linker, engine);
    EXPECT_TRUE(engine.hasCheck("fe-exit-shape"))
        << engine.textReport();
}

TEST(Analysis, FrontendPassCleanOnLiveRuntimeBothModes)
{
    // The dense tables (block index round-trip, dispatch table, exit
    // caches) must be consistent on a live runtime, including after a
    // module unload retires ids.
    guest::SyntheticProgramConfig config;
    config.seed = 13;
    config.phases = 2;
    config.phaseIterations = 20;
    config.innerIterations = 10;
    config.dllCount = 1;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    guest::AddressSpace space;
    cache::UnifiedCacheManager manager(4 * kKiB);
    runtime::Runtime runtime(space, manager, /*trace_threshold=*/10);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    ASSERT_TRUE(runtime.finished());

    analysis::AnalysisInput input =
        analysis::AnalysisInput::forRuntime(synthetic.program, runtime);
    analysis::FrontendPass pass;
    DiagnosticEngine engine;
    engine.setCurrentPass(pass.name());
    pass.run(input, engine);
    EXPECT_TRUE(engine.empty()) << engine.textReport();

    ASSERT_FALSE(synthetic.dllLastPhase.empty());
    runtime.unloadModule(synthetic.dllLastPhase[0].first);
    DiagnosticEngine after;
    after.setCurrentPass(pass.name());
    pass.run(input, after);
    EXPECT_TRUE(after.empty()) << after.textReport();
}

// ---------------------------------------------------------------------
// Cache-state negatives.
// ---------------------------------------------------------------------

TEST(Analysis, DuplicateResidencyIsReported)
{
    cache::GenerationalConfig config;
    config.nurseryBytes = 1 * kKiB;
    config.probationBytes = 1 * kKiB;
    config.persistentBytes = 1 * kKiB;
    cache::GenerationalCacheManager manager(config);
    ASSERT_TRUE(manager.insert(1, 100, 0, 0)); // lands in the nursery

    // Corrupt: force a second copy into the persistent cache behind
    // the manager's back.
    auto &persistent = const_cast<cache::LocalCache &>(
        manager.localCache(cache::Generation::Persistent));
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(persistent.insert(makeFragment(1, 100), evicted));

    DiagnosticEngine engine = analysis::checkManager(manager);
    EXPECT_TRUE(engine.hasCheck("gen-dup-residency"))
        << engine.textReport();
}

TEST(Analysis, BrokenFreeListIsReported)
{
    CorruptibleFifo fifo(1 * kKiB);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(fifo.insert(makeFragment(1, 100), evicted));
    ASSERT_TRUE(fifo.insert(makeFragment(2, 100), evicted));
    ASSERT_TRUE(fifo.remove(1)); // slot 0 goes to the free list
    fifo.breakFreeList();

    DiagnosticEngine engine;
    analysis::checkLocalCache(fifo, "fifo", engine);
    EXPECT_TRUE(engine.hasCheck("list-free-broken"))
        << engine.textReport();
}

TEST(Analysis, BrokenVictimRingIsReported)
{
    CorruptibleFifo fifo(1 * kKiB);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(fifo.insert(makeFragment(1, 100), evicted));
    ASSERT_TRUE(fifo.insert(makeFragment(2, 100), evicted));
    fifo.breakRing();

    DiagnosticEngine engine;
    analysis::checkLocalCache(fifo, "fifo", engine);
    EXPECT_TRUE(engine.hasCheck("list-ring-broken"))
        << engine.textReport();
}

TEST(Analysis, ByteAccountingMismatchIsReported)
{
    CorruptibleFifo fifo(1 * kKiB);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(fifo.insert(makeFragment(1, 100), evicted));
    fifo.breakBytes();

    DiagnosticEngine engine;
    analysis::checkLocalCache(fifo, "fifo", engine);
    EXPECT_TRUE(engine.hasCheck("list-bytes"))
        << engine.textReport();
}

TEST(Analysis, IntactCachesAreClean)
{
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(
            2 * kKiB, 0.45, 0.10, /*threshold=*/1);
    cache::GenerationalCacheManager manager(config);
    for (cache::TraceId id = 1; id <= 40; ++id) {
        manager.insert(id, 100, 0, id);
        manager.lookup(id, id);
        manager.lookup(id / 2 + 1, id);
    }
    DiagnosticEngine engine = analysis::checkManager(manager);
    EXPECT_TRUE(engine.empty()) << engine.textReport();
}

// ---------------------------------------------------------------------
// GENCACHE_CHECK phase-boundary hook.
// ---------------------------------------------------------------------

// GENCACHE_CHECK parses like the other GENCACHE_* knobs: a fixed
// vocabulary in any case, and one warning naming anything else.
TEST(Analysis, CheckKnobParsesStrictly)
{
    for (const char *on : {"1", "true", "TRUE", "On", "yes", "YES"}) {
        ScopedCheckEnv env(on);
        ::testing::internal::CaptureStderr();
        EXPECT_TRUE(analysis::checkingEnabled()) << on;
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), "") << on;
    }
    for (const char *off : {static_cast<const char *>(nullptr), "",
                            "0", "false", "False", "off", "OFF", "no",
                            "No"}) {
        ScopedCheckEnv env(off);
        const std::string label = off == nullptr ? "(unset)" : off;
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(analysis::checkingEnabled()) << label;
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), "")
            << label;
    }
    for (const char *bad : {"2", "maybe", "enabled", " 1", "yes!"}) {
        ScopedCheckEnv env(bad);
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(analysis::checkingEnabled()) << bad;
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warn: ignoring invalid GENCACHE_CHECK='" +
                           std::string(bad) + "'"),
                  std::string::npos)
            << err;
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }
}

TEST(Analysis, PhaseChecksAttachOnlyWhenEnabled)
{
    guest::SyntheticProgramConfig config;
    config.seed = 11;
    config.phases = 2;
    config.phaseIterations = 20;
    config.innerIterations = 10;
    config.dllCount = 1;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);
    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    cache::UnifiedCacheManager manager(4 * kKiB);
    runtime::Runtime runtime(space, manager, /*trace_threshold=*/10);

    {
        ScopedCheckEnv env("0");
        EXPECT_FALSE(analysis::attachPhaseChecks(runtime));
    }
    {
        ScopedCheckEnv env("1");
        EXPECT_TRUE(analysis::attachPhaseChecks(runtime));
    }
    // With the hook installed, a healthy run passes every boundary.
    runtime.start(synthetic.program.entry());
    runtime.run();
    EXPECT_TRUE(runtime.finished());
}

} // namespace
