/**
 * @file
 * Unit tests for the Table 2 cost model: the paper's published values
 * for the 242-byte median trace, and the §6.2 pricing rules of
 * sim::TableOverheadListener, the replay's cost accountant. (The
 * OverheadAccount suite keeps the name of the formula-priced listener
 * these rules were first written for.)
 */

#include <gtest/gtest.h>

#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "costmodel/cost_model.h"
#include "sim/batched_replay.h"
#include "sim/cost_tables.h"
#include "tracelog/compiled_log.h"

namespace gencache::cost {
namespace {

using sim::TableOverheadListener;

/** A tiny log creating four 60-byte traces: its dense ids are 0-3. */
tracelog::AccessLog
sixtyByteLog()
{
    tracelog::AccessLog log;
    log.setBenchmark("sixty");
    log.append(tracelog::Event::moduleLoad(0, 0));
    for (cache::TraceId id = 0; id < 4; ++id) {
        log.append(tracelog::Event::traceCreate(id + 1, id, 60, 0));
    }
    log.setDuration(5);
    return log;
}

/** Cost tables of sixtyByteLog(): the listener prices a fragment by
 *  its dense id, so the managers below insert ids 0-3. */
sim::CostTables
sixtyByteTables(const CostModel &model)
{
    return sim::CostTables::build(
        tracelog::CompiledLog::compile(sixtyByteLog()), model);
}

TEST(CostModel, PaperValuesForMedianTrace)
{
    // §6.2: "For a 242-byte trace (the median across all benchmarks),
    // the estimated overhead of trace generation is 69,834
    // instructions, eviction is 3,316 instructions, and promotion is
    // 13,354 instructions."
    CostModel model;
    EXPECT_NEAR(static_cast<double>(
                    model.traceGeneration(CostModel::kMedianTraceBytes)),
                69'834.0, 5.0);
    EXPECT_EQ(model.eviction(CostModel::kMedianTraceBytes), 3'316u);
    EXPECT_EQ(model.promotion(CostModel::kMedianTraceBytes), 13'354u);
}

TEST(CostModel, ContextSwitchIs25Instructions)
{
    CostModel model;
    EXPECT_EQ(model.contextSwitch(), 25u);
}

TEST(CostModel, MissCostApprox85k)
{
    // "For an average trace, this amounts to approximately 85,000
    // instructions."
    CostModel model;
    InstrCount cost = model.missCost(CostModel::kMedianTraceBytes);
    EXPECT_GT(cost, 80'000u);
    EXPECT_LT(cost, 90'000u);
}

TEST(CostModel, CopyEqualsPromotion)
{
    CostModel model;
    EXPECT_EQ(model.copy(100), model.promotion(100));
}

TEST(CostModel, FormulasScaleWithSize)
{
    CostModel model;
    EXPECT_LT(model.traceGeneration(100), model.traceGeneration(1000));
    EXPECT_EQ(model.eviction(100), 2925u);  // 275 + 2650
    EXPECT_EQ(model.promotion(100), 10230u); // 2200 + 8030
}

TEST(OverheadAccount, ChargesUnifiedInsertAndEviction)
{
    CostModel model;
    const sim::CostTables tables = sixtyByteTables(model);
    TableOverheadListener account(tables);
    cache::UnifiedCacheManager manager(100);
    manager.setListener(&account);

    manager.insert(1, 60, 0, 0);
    const OverheadBreakdown &after_insert = account.breakdown();
    EXPECT_EQ(after_insert.traceGeneration, model.traceGeneration(60));
    EXPECT_EQ(after_insert.contextSwitches, 50u);
    EXPECT_EQ(after_insert.copies, model.copy(60));
    EXPECT_EQ(after_insert.evictions, 0u);
    EXPECT_EQ(after_insert.promotions, 0u);

    manager.insert(2, 60, 0, 1); // evicts trace 1
    EXPECT_EQ(account.breakdown().evictions, model.eviction(60));
}

TEST(OverheadAccount, ChargesPromotionsNotPromotionMoves)
{
    CostModel model;
    const sim::CostTables tables = sixtyByteTables(model);
    TableOverheadListener account(tables);
    cache::GenerationalConfig config;
    config.nurseryBytes = 100;
    config.probationBytes = 100;
    config.persistentBytes = 100;
    config.promotionThreshold = 1;
    cache::GenerationalCacheManager manager(config);
    manager.setListener(&account);

    manager.insert(1, 60, 0, 0);
    manager.insert(2, 60, 0, 1); // 1 -> probation: cheap transfer
    EXPECT_EQ(account.breakdown().promotions, model.eviction(60));
    // The move out of the nursery must NOT also be charged as an
    // eviction: the code was relocated, not destroyed.
    EXPECT_EQ(account.breakdown().evictions, 0u);
    manager.lookup(1, 2);        // probation hit
    manager.insert(3, 60, 0, 3); // 1 -> persistent: full promotion
    EXPECT_EQ(account.breakdown().promotions,
              2 * model.eviction(60) + model.promotion(60));
}

TEST(OverheadAccount, ChargesRejectionAsEviction)
{
    CostModel model;
    const sim::CostTables tables = sixtyByteTables(model);
    TableOverheadListener account(tables);
    cache::GenerationalConfig config;
    config.nurseryBytes = 100;
    config.probationBytes = 100;
    config.persistentBytes = 100;
    config.promotionThreshold = 1;
    cache::GenerationalCacheManager manager(config);
    manager.setListener(&account);

    manager.insert(1, 60, 0, 0);
    manager.insert(2, 60, 0, 1); // 1 -> probation
    manager.insert(3, 60, 0, 2); // 2 -> probation, 1 rejected
    EXPECT_EQ(account.breakdown().evictions, model.eviction(60));
}

TEST(OverheadAccount, ResetClears)
{
    // Each replay installs a fresh accountant, so a second replay of
    // the same log starts from zero and reports the same breakdown.
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(sixtyByteLog());
    OverheadBreakdown breakdowns[2];
    for (OverheadBreakdown &breakdown : breakdowns) {
        cache::UnifiedCacheManager manager(100);
        sim::BatchedReplay replay(compiled);
        replay.addLane(manager);
        breakdown = replay.run().front().overhead;
    }
    EXPECT_GT(breakdowns[0].total(), 0u);
    EXPECT_EQ(breakdowns[0].traceGeneration,
              breakdowns[1].traceGeneration);
    EXPECT_EQ(breakdowns[0].contextSwitches,
              breakdowns[1].contextSwitches);
    EXPECT_EQ(breakdowns[0].evictions, breakdowns[1].evictions);
    EXPECT_EQ(breakdowns[0].promotions, breakdowns[1].promotions);
    EXPECT_EQ(breakdowns[0].copies, breakdowns[1].copies);
}

TEST(OverheadBreakdown, TotalSumsCategories)
{
    OverheadBreakdown breakdown;
    breakdown.traceGeneration = 1;
    breakdown.contextSwitches = 2;
    breakdown.evictions = 3;
    breakdown.promotions = 4;
    breakdown.copies = 5;
    EXPECT_EQ(breakdown.total(), 15u);
}

} // namespace
} // namespace gencache::cost
