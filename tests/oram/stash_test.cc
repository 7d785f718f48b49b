/** @file Unit tests for the dense insertion-ordered ORAM stash. */

#include "oram/stash.hh"

#include <gtest/gtest.h>

#include <vector>

namespace proram
{
namespace
{

using namespace proram::literals;

TEST(Stash, InsertFindErase)
{
    Stash s(10);
    EXPECT_TRUE(s.insert(5_id, 99, 3_leaf));
    EXPECT_TRUE(s.contains(5_id));
    ASSERT_NE(s.findData(5_id), nullptr);
    EXPECT_EQ(*s.findData(5_id), 99u);
    EXPECT_EQ(s.leafOf(5_id), 3_leaf);
    EXPECT_TRUE(s.erase(5_id));
    EXPECT_FALSE(s.contains(5_id));
    EXPECT_FALSE(s.erase(5_id));
    EXPECT_EQ(s.findData(5_id), nullptr);
    EXPECT_EQ(s.leafOf(5_id), kInvalidLeaf);
}

TEST(Stash, DuplicateInsertRejected)
{
    Stash s(10);
    EXPECT_TRUE(s.insert(1_id, 1, 0_leaf));
    EXPECT_FALSE(s.insert(1_id, 2, 7_leaf));
    EXPECT_EQ(*s.findData(1_id), 1u);
    EXPECT_EQ(s.leafOf(1_id), 0_leaf);
}

TEST(Stash, CapacityIsSoft)
{
    Stash s(2);
    s.insert(1_id, 0, 0_leaf);
    s.insert(2_id, 0, 0_leaf);
    EXPECT_FALSE(s.overCapacity());
    s.insert(3_id, 0, 0_leaf);
    EXPECT_TRUE(s.overCapacity());
    EXPECT_EQ(s.size(), 3u);
}

TEST(Stash, IterationFollowsInsertionOrder)
{
    Stash s(10);
    s.insert(3_id, 0, 0_leaf);
    s.insert(9_id, 0, 0_leaf);
    s.insert(1_id, 0, 0_leaf);
    EXPECT_EQ(s.residentIds(), (std::vector<BlockId>{3_id, 9_id, 1_id}));
    std::vector<BlockId> visited;
    s.forEachResident([&](const StashEntry &e) {
        visited.push_back(e.id);
    });
    EXPECT_EQ(visited, (std::vector<BlockId>{3_id, 9_id, 1_id}));
}

TEST(Stash, InsertionOrderSurvivesEraseAndReinsert)
{
    Stash s(10);
    for (BlockId b : {4_id, 8_id, 15_id, 16_id, 23_id})
        s.insert(b, 0, 0_leaf);
    s.erase(8_id);
    s.erase(16_id);
    // Survivors keep their relative order; a reinsert goes to the end.
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id}));
    s.insert(8_id, 0, 0_leaf);
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id, 8_id}));
}

TEST(Stash, OrderAndLookupsSurviveCompaction)
{
    // Churn enough dead entries to force internal compaction several
    // times; order and id -> entry mapping must hold throughout.
    Stash s(8);
    for (std::uint64_t b = 0; b < 64; ++b)
        s.insert(BlockId{b}, b * 2,
                 Leaf{static_cast<std::uint32_t>(b % 7)});
    for (std::uint64_t b = 0; b < 64; ++b) {
        if (b % 3 != 0)
            s.erase(BlockId{b});
    }
    std::vector<BlockId> expect;
    for (std::uint64_t b = 0; b < 64; b += 3)
        expect.push_back(BlockId{b});
    EXPECT_EQ(s.residentIds(), expect);
    for (BlockId b : expect) {
        ASSERT_NE(s.findData(b), nullptr) << "block " << b;
        EXPECT_EQ(*s.findData(b), b.value() * 2);
        EXPECT_EQ(s.leafOf(b),
                  Leaf{static_cast<std::uint32_t>(b.value() % 7)});
    }
    EXPECT_EQ(s.size(), expect.size());
}

TEST(Stash, SoALanesStayDenseAndAligned)
{
    // The SoA contract writePath depends on: leafLane()/idLane() are
    // parallel arrays over slotCount() slots, dead slots are marked
    // kInvalidBlock in the id lane, and compaction re-packs all lanes.
    Stash s(8);
    for (std::uint64_t b = 0; b < 6; ++b)
        s.insert(BlockId{b}, b + 100,
                 Leaf{static_cast<std::uint32_t>(b)});
    s.erase(1_id);
    s.erase(4_id);
    ASSERT_EQ(s.slotCount(), 6u); // dead slots still present
    std::size_t live = 0;
    for (std::size_t i = 0; i < s.slotCount(); ++i) {
        if (s.idLane()[i] == kInvalidBlock)
            continue;
        ++live;
        const BlockId id = s.idLane()[i];
        EXPECT_EQ(s.leafLane()[i],
                  Leaf{static_cast<std::uint32_t>(id.value())});
        EXPECT_EQ(s.dataLane()[i], id.value() + 100);
    }
    EXPECT_EQ(live, s.size());
}

TEST(Stash, UpdateLeafRefreshesResidentEntryOnly)
{
    Stash s(4);
    s.insert(6_id, 0, 2_leaf);
    s.updateLeaf(6_id, 11_leaf);
    EXPECT_EQ(s.leafOf(6_id), 11_leaf);
    s.updateLeaf(99_id, 5_leaf); // absent: must be a no-op, not an insert
    EXPECT_FALSE(s.contains(99_id));
    EXPECT_EQ(s.size(), 1u);
}

TEST(Stash, OccupancySampling)
{
    Stash s(10);
    s.insert(1_id, 0, 0_leaf);
    s.sampleOccupancy();
    s.insert(2_id, 0, 0_leaf);
    s.insert(3_id, 0, 0_leaf);
    s.sampleOccupancy();
    EXPECT_EQ(s.occupancy().count(), 2u);
    EXPECT_DOUBLE_EQ(s.occupancy().mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.occupancy().max(), 3.0);
}

TEST(Stash, MutableDataThroughFindData)
{
    Stash s(4);
    s.insert(7_id, 10, 0_leaf);
    *s.findData(7_id) = 20;
    EXPECT_EQ(*s.findData(7_id), 20u);
}

} // namespace
} // namespace proram
