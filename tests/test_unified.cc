/**
 * @file
 * Unit tests for the unified cache manager: lookup/insert protocol,
 * module invalidation, listener events, and statistics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "codecache/list_cache.h"
#include "codecache/unified_cache.h"

namespace gencache::cache {
namespace {

/** Records every listener callback for assertions. */
class RecordingListener : public CacheEventListener
{
  public:
    struct Record
    {
        std::string kind;
        TraceId trace;
        Generation gen;
        EvictReason reason;
    };

    void onMiss(TraceId id, TimeUs) override
    {
        records.push_back({"miss", id, Generation::Unified,
                           EvictReason::Capacity});
    }
    void onHit(TraceId id, Generation gen, TimeUs) override
    {
        records.push_back({"hit", id, gen, EvictReason::Capacity});
    }
    void onInsert(const Fragment &frag, Generation gen,
                  TimeUs) override
    {
        records.push_back({"insert", frag.id, gen,
                           EvictReason::Capacity});
    }
    void onEvict(const Fragment &frag, Generation gen,
                 EvictReason reason, TimeUs) override
    {
        records.push_back({"evict", frag.id, gen, reason});
    }
    void onPromote(const Fragment &frag, Generation from, Generation,
                   TimeUs) override
    {
        records.push_back({"promote", frag.id, from,
                           EvictReason::PromotionMove});
    }

    std::size_t count(const std::string &kind) const
    {
        std::size_t n = 0;
        for (const Record &record : records) {
            if (record.kind == kind) {
                ++n;
            }
        }
        return n;
    }

    std::vector<Record> records;
};

TEST(UnifiedCache, MissThenInsertThenHit)
{
    UnifiedCacheManager manager(1024);
    EXPECT_FALSE(manager.lookup(1, 0));
    EXPECT_TRUE(manager.insert(1, 100, 0, 1));
    EXPECT_TRUE(manager.lookup(1, 2));
    EXPECT_TRUE(manager.contains(1));

    const ManagerStats &stats = manager.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_DOUBLE_EQ(stats.missRate(), 0.5);
}

TEST(UnifiedCache, CapacityEvictionFlowsToListener)
{
    UnifiedCacheManager manager(100);
    RecordingListener listener;
    manager.setListener(&listener);
    manager.insert(1, 60, 0, 0);
    manager.insert(2, 60, 0, 1);
    EXPECT_EQ(listener.count("insert"), 2u);
    EXPECT_EQ(listener.count("evict"), 1u);
    EXPECT_EQ(listener.records[1].trace, 1u);
    EXPECT_EQ(listener.records[1].reason, EvictReason::Capacity);
    EXPECT_EQ(manager.stats().deletions, 1u);
}

TEST(UnifiedCache, InvalidateModuleRemovesOnlyThatModule)
{
    UnifiedCacheManager manager(10'000);
    manager.insert(1, 100, /*module=*/7, 0);
    manager.insert(2, 100, /*module=*/8, 0);
    manager.insert(3, 100, /*module=*/7, 0);
    manager.invalidateModule(7, 1);
    EXPECT_FALSE(manager.contains(1));
    EXPECT_TRUE(manager.contains(2));
    EXPECT_FALSE(manager.contains(3));
    EXPECT_EQ(manager.stats().unmapDeletions, 2u);
    EXPECT_EQ(manager.stats().unmapDeletedBytes, 200u);
}

TEST(UnifiedCache, UnmapEventsHaveUnmapReason)
{
    UnifiedCacheManager manager(10'000);
    RecordingListener listener;
    manager.setListener(&listener);
    manager.insert(1, 100, 3, 0);
    manager.invalidateModule(3, 1);
    ASSERT_EQ(listener.count("evict"), 1u);
    EXPECT_EQ(listener.records.back().reason, EvictReason::Unmap);
}

TEST(UnifiedCache, PinnedTraceSurvivesPressure)
{
    UnifiedCacheManager manager(100);
    manager.insert(1, 50, 0, 0);
    ASSERT_TRUE(manager.setPinned(1, true));
    for (TraceId id = 2; id < 12; ++id) {
        manager.insert(id, 50, 0, id);
    }
    EXPECT_TRUE(manager.contains(1));
}

TEST(UnifiedCache, SetPinnedOnAbsentTrace)
{
    UnifiedCacheManager manager(100);
    EXPECT_FALSE(manager.setPinned(5, true));
}

TEST(UnifiedCache, UnboundedTracksPeak)
{
    UnifiedCacheManager manager(0);
    for (TraceId id = 1; id <= 10; ++id) {
        manager.insert(id, 1000, 0, id);
    }
    manager.invalidateModule(0, 11);
    EXPECT_EQ(manager.usedBytes(), 0u);
    // The unbounded configuration's local cache keeps its own peak.
    const auto *unbounded =
        dynamic_cast<const UnboundedCache *>(&manager.local());
    ASSERT_NE(unbounded, nullptr);
    EXPECT_EQ(unbounded->peakBytes(), 10'000u);
    EXPECT_EQ(manager.name(), "unified/unbounded");
}

TEST(UnifiedCache, NameDescribesPolicyAndSize)
{
    UnifiedCacheManager manager(2048);
    EXPECT_EQ(manager.name(), "unified/pseudo-circular (2.00 KB)");
}

TEST(UnifiedCacheDeath, DoubleInsertPanics)
{
    UnifiedCacheManager manager(1024);
    manager.insert(1, 100, 0, 0);
    EXPECT_DEATH(manager.insert(1, 100, 0, 1), "resident");
}

TEST(UnifiedCache, PlacementFailureReported)
{
    UnifiedCacheManager manager(64);
    EXPECT_FALSE(manager.insert(1, 100, 0, 0));
    EXPECT_EQ(manager.stats().placementFailures, 1u);
    EXPECT_FALSE(manager.contains(1));
}

} // namespace
} // namespace gencache::cache
