/** @file Unit tests for the two-level cache hierarchy. */

#include "mem/cache_hierarchy.hh"

#include <gtest/gtest.h>

namespace proram
{
namespace
{

using namespace proram::literals;

HierarchyConfig
smallHier()
{
    HierarchyConfig cfg;
    cfg.l1 = CacheConfig{2 * 128, 1, 128};  // 2 lines, direct mapped
    cfg.l2 = CacheConfig{8 * 128, 2, 128};  // 8 lines, 2-way
    cfg.l1Latency = Cycles{1};
    cfg.l2Latency = Cycles{10};
    return cfg;
}

TEST(Hierarchy, MissThenL1Hit)
{
    CacheHierarchy h(smallHier());
    EXPECT_EQ(h.lookup(3_id, OpType::Read), HitLevel::Miss);
    h.fillFromMemory(3_id, false);
    EXPECT_EQ(h.lookup(3_id, OpType::Read), HitLevel::L1);
}

TEST(Hierarchy, L2HitRefillsL1)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    h.fillFromMemory(2_id, false); // evicts 0 from L1 (same set), stays L2
    EXPECT_EQ(h.lookup(0_id, OpType::Read), HitLevel::L2);
    EXPECT_EQ(h.lookup(0_id, OpType::Read), HitLevel::L1);
}

TEST(Hierarchy, HitLatencies)
{
    CacheHierarchy h(smallHier());
    EXPECT_EQ(h.hitLatency(HitLevel::L1), Cycles{1});
    EXPECT_EQ(h.hitLatency(HitLevel::L2), Cycles{11});
}

TEST(Hierarchy, DirtyLlcVictimReportedForWriteback)
{
    CacheHierarchy h(smallHier());
    // Fill set 0 of the LLC (blocks 0 and 4 with 4 sets... use
    // conflicting blocks: LLC has 4 sets, 2 ways: 0, 4, 8 conflict).
    h.fillFromMemory(0_id, true);
    h.fillFromMemory(4_id, false);
    auto wb = h.fillFromMemory(8_id, false);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->block, 0_id);
    EXPECT_TRUE(wb->dirty);
}

TEST(Hierarchy, CleanVictimsProduceNoWriteback)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    h.fillFromMemory(4_id, false);
    auto wb = h.fillFromMemory(8_id, false);
    EXPECT_FALSE(wb.has_value());
}

TEST(Hierarchy, InclusionBackInvalidatesL1)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    EXPECT_EQ(h.lookup(0_id, OpType::Read), HitLevel::L1);
    // Evict 0 from the LLC via conflicts.
    h.fillFromMemory(4_id, false);
    h.fillFromMemory(8_id, false);
    // 0 must be gone from L1 too (inclusive hierarchy).
    EXPECT_EQ(h.lookup(0_id, OpType::Read), HitLevel::Miss);
}

TEST(Hierarchy, L1DirtinessSurvivesLlcEviction)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    h.lookup(0_id, OpType::Write); // dirty in L1 only
    h.fillFromMemory(4_id, false);
    auto wb = h.fillFromMemory(8_id, false); // evicts 0 from LLC
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->block, 0_id);
    EXPECT_TRUE(wb->dirty) << "L1 dirty bit lost on back-invalidate";
}

TEST(Hierarchy, InsertPrefetchGoesToLlcOnly)
{
    CacheHierarchy h(smallHier());
    BlockId clean = kInvalidBlock;
    h.insertPrefetch(5_id, &clean);
    EXPECT_TRUE(h.probeLlc(5_id));
    // First access must be an L2 hit, not L1.
    EXPECT_EQ(h.lookup(5_id, OpType::Read), HitLevel::L2);
}

TEST(Hierarchy, InsertPrefetchRefusesDirtyVictim)
{
    // A prefetch must never force a write-back: with a dirty LRU
    // victim the insertion is dropped.
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, true);
    h.fillFromMemory(4_id, false);
    BlockId clean = kInvalidBlock;
    EXPECT_FALSE(h.insertPrefetch(8_id, &clean));
    EXPECT_FALSE(h.probeLlc(8_id));
    EXPECT_TRUE(h.probeLlc(0_id)) << "dirty line must stay resident";
    EXPECT_EQ(clean, kInvalidBlock);
}

TEST(Hierarchy, InsertPrefetchRefusesL1DirtyVictim)
{
    // The victim may be clean in L2 but dirty in L1 (write-back L1):
    // still refused.
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    h.lookup(0_id, OpType::Write); // dirty in L1 only
    h.fillFromMemory(4_id, false);
    BlockId clean = kInvalidBlock;
    EXPECT_FALSE(h.insertPrefetch(8_id, &clean));
    EXPECT_TRUE(h.probeLlc(0_id));
}

TEST(Hierarchy, InsertPrefetchReportsCleanVictim)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, false);
    h.fillFromMemory(4_id, false);
    BlockId clean = kInvalidBlock;
    EXPECT_TRUE(h.insertPrefetch(8_id, &clean));
    EXPECT_EQ(clean, 0_id);
    EXPECT_TRUE(h.probeLlc(8_id));
}

TEST(Hierarchy, InsertPrefetchResidentIsNoop)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(3_id, true); // dirty
    BlockId clean = kInvalidBlock;
    EXPECT_TRUE(h.insertPrefetch(3_id, &clean));
    // Still dirty: re-inserting must not launder the dirty bit.
    auto dirty = h.drainDirty();
    EXPECT_EQ(dirty.size(), 1u);
}

TEST(Hierarchy, DrainDirtyReturnsAllDirtyLines)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(0_id, true);
    h.fillFromMemory(1_id, false);
    h.lookup(1_id, OpType::Write);
    h.fillFromMemory(2_id, false);
    auto dirty = h.drainDirty();
    EXPECT_EQ(dirty.size(), 2u);
    EXPECT_FALSE(h.probeLlc(0_id));
    EXPECT_FALSE(h.probeLlc(1_id));
    EXPECT_FALSE(h.probeLlc(2_id));
}

TEST(Hierarchy, ProbeLlcIsTagOnly)
{
    CacheHierarchy h(smallHier());
    h.fillFromMemory(6_id, false);
    EXPECT_TRUE(h.probeLlc(6_id));
    EXPECT_FALSE(h.probeLlc(7_id));
}

} // namespace
} // namespace proram
