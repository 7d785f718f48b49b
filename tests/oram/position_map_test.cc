/** @file Unit tests for the position map, block space and PLB. */

#include "oram/position_map.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "mem/arena.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
smallCfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 12; // 4096
    c.blockBytes = 128;           // fanout 32
    c.hierarchies = 4;
    return c;
}

TEST(BlockSpace, LayoutForSmallConfig)
{
    BlockSpace space(smallCfg());
    EXPECT_EQ(space.numDataBlocks(), 4096u);
    EXPECT_EQ(space.fanout(), 32u);
    // 4096 -> 128 -> 4 on-chip: 2 tree-resident pos-map levels.
    EXPECT_EQ(space.posMapLevels(), 2u);
    EXPECT_EQ(space.levelCount(1), 128u);
    EXPECT_EQ(space.levelCount(2), 4u);
    EXPECT_EQ(space.levelBase(1), 4096_id);
    EXPECT_EQ(space.levelBase(2), 4096_id + 128);
    EXPECT_EQ(space.numTotalBlocks(), 4096u + 128u + 4u);
}

TEST(BlockSpace, LevelOf)
{
    BlockSpace space(smallCfg());
    EXPECT_EQ(space.levelOf(0_id), 0u);
    EXPECT_EQ(space.levelOf(4095_id), 0u);
    EXPECT_EQ(space.levelOf(4096_id), 1u);
    EXPECT_EQ(space.levelOf(4096_id + 127), 1u);
    EXPECT_EQ(space.levelOf(4096_id + 128), 2u);
    EXPECT_TRUE(space.isData(4095_id));
    EXPECT_FALSE(space.isData(4096_id));
}

TEST(BlockSpace, PosMapBlockOfDataBlock)
{
    BlockSpace space(smallCfg());
    // Data block 0..31 covered by pos-map block 4096.
    EXPECT_EQ(space.posMapBlockOf(0_id), 4096_id);
    EXPECT_EQ(space.posMapBlockOf(31_id), 4096_id);
    EXPECT_EQ(space.posMapBlockOf(32_id), 4097_id);
    EXPECT_EQ(space.posMapBlockOf(4095_id), 4096_id + 127);
}

TEST(BlockSpace, PosMapBlockOfPosMapBlock)
{
    BlockSpace space(smallCfg());
    // Level-1 block index 0..31 covered by level-2 block 0.
    EXPECT_EQ(space.posMapBlockOf(4096_id), 4096_id + 128);
    EXPECT_EQ(space.posMapBlockOf(4096_id + 33), 4096_id + 129);
    // Level-2 blocks are covered by the on-chip table.
    EXPECT_EQ(space.posMapBlockOf(4096_id + 128), kInvalidBlock);
}

TEST(BlockSpace, WholeChainTerminates)
{
    BlockSpace space(smallCfg());
    for (BlockId b : {0_id, 1000_id, 4095_id}) {
        BlockId cur = b;
        int hops = 0;
        while ((cur = space.posMapBlockOf(cur)) != kInvalidBlock) {
            ++hops;
            ASSERT_LT(hops, 10);
        }
        EXPECT_EQ(hops, 2);
    }
}

TEST(BlockSpace, OutOfRangePanics)
{
    BlockSpace space(smallCfg());
    EXPECT_THROW(space.levelOf(BlockId{space.numTotalBlocks()}), SimPanic);
}

TEST(BlockSpace, IdSpaceMustFitTheSlotHeader)
{
    // The tree's slot header stores a 32-bit id with all-ones as the
    // dummy marker, so data + pos-map blocks must stay below 2^32 - 1.
    // BlockSpace is pure arithmetic: neither size allocates a table.
    OramConfig c = smallCfg();
    c.numDataBlocks = 1ULL << 31; // + ~2^31/31 pos-map blocks: fits
    const BlockSpace fits(c);
    EXPECT_LT(fits.numTotalBlocks(), SlotHeader::kMaxBlocks);
    c.numDataBlocks = 1ULL << 32;
    EXPECT_THROW(BlockSpace{c}, SimFatal);
    c.numDataBlocks = SlotHeader::kMaxBlocks - 1; // pos-map blocks tip it
    EXPECT_THROW(BlockSpace{c}, SimFatal);
}

TEST(PositionMap, EntryRoundTrip)
{
    PositionMap pm(100, Leaf{64});
    pm.setLeaf(7_id, 13_leaf);
    EXPECT_EQ(pm.leafOf(7_id), 13_leaf);
    PosEntry &e = pm.entry(7_id);
    e.sbSizeLog = 2;
    e.mergeBit = true;
    e.prefetchBit = true;
    EXPECT_EQ(pm.entry(7_id).sbSize(), 4u);
    EXPECT_TRUE(pm.entry(7_id).mergeBit);
    EXPECT_TRUE(pm.entry(7_id).prefetchBit);
    EXPECT_FALSE(pm.entry(7_id).breakBit);
    EXPECT_FALSE(pm.entry(7_id).hitBit);
}

TEST(PositionMap, FreshEntriesAreInvalid)
{
    PositionMap pm(10, Leaf{8});
    EXPECT_EQ(pm.leafOf(0_id), kInvalidLeaf);
    EXPECT_EQ(pm.entry(0_id).sbSize(), 1u);
}

TEST(PositionMap, OutOfRangePanics)
{
    PositionMap pm(10, Leaf{8});
    EXPECT_THROW(pm.leafOf(10_id), SimPanic);
}

TEST(Plb, HitMissLru)
{
    PosMapBlockCache plb(2);
    EXPECT_FALSE(plb.lookup(1_id));
    plb.insert(1_id);
    plb.insert(2_id);
    EXPECT_TRUE(plb.lookup(1_id)); // refreshes 1
    plb.insert(3_id);              // evicts 2 (LRU)
    EXPECT_TRUE(plb.contains(1_id));
    EXPECT_FALSE(plb.contains(2_id));
    EXPECT_TRUE(plb.contains(3_id));
    EXPECT_EQ(plb.size(), 2u);
}

TEST(Plb, ReinsertRefreshes)
{
    PosMapBlockCache plb(2);
    plb.insert(1_id);
    plb.insert(2_id);
    plb.insert(1_id); // refresh, no eviction
    plb.insert(3_id); // evicts 2
    EXPECT_TRUE(plb.contains(1_id));
    EXPECT_FALSE(plb.contains(2_id));
}

TEST(Plb, CountsHitsAndMisses)
{
    PosMapBlockCache plb(4);
    plb.lookup(9_id);
    plb.insert(9_id);
    plb.lookup(9_id);
    EXPECT_EQ(plb.hits(), 1u);
    EXPECT_EQ(plb.misses(), 1u);
}

TEST(Plb, ZeroCapacityRejected)
{
    EXPECT_THROW(PosMapBlockCache(0), SimFatal);
}

TEST(Plb, MatchesReferenceLruModel)
{
    // The array-backed intrusive LRU must be behaviorally identical
    // to the textbook list-based cache it replaced: drive both with
    // the same randomized lookup/insert stream and compare contents
    // and hit counts throughout.
    constexpr std::uint32_t kCap = 8;
    PosMapBlockCache plb(kCap);
    std::list<BlockId> model; // front = most recent
    Rng rng(31);
    std::uint64_t model_hits = 0;
    for (int step = 0; step < 5000; ++step) {
        const BlockId b{rng.below(32)};
        const auto it = std::find(model.begin(), model.end(), b);
        const bool model_hit = it != model.end();
        if (model_hit) {
            ++model_hits;
            model.splice(model.begin(), model, it);
        }
        EXPECT_EQ(plb.lookup(b), model_hit) << "step " << step;
        if (!model_hit) {
            if (model.size() >= kCap)
                model.pop_back();
            model.push_front(b);
            plb.insert(b);
        }
        ASSERT_EQ(plb.size(), model.size());
    }
    EXPECT_EQ(plb.hits(), model_hits);
    for (BlockId b : model)
        EXPECT_TRUE(plb.contains(b)) << "block " << b;
}

TEST(PositionMap, SetLeafForwardsToAttachedLeafCache)
{
    // The leaf-cache coherence hook: while a stash is attached, every
    // setLeaf must refresh that stash's cached copy for resident
    // blocks and leave non-resident blocks alone.
    PositionMap pm(100, Leaf{64});
    Stash stash(8, 16);
    stash.insert(7_id, 0, 1_leaf);
    pm.attachLeafCache(&stash);
    pm.setLeaf(7_id, 42_leaf);
    EXPECT_EQ(pm.leafOf(7_id), 42_leaf);
    EXPECT_EQ(stash.leafOf(7_id), 42_leaf);
    pm.setLeaf(8_id, 13_leaf); // not stash-resident: no phantom insert
    EXPECT_FALSE(stash.contains(8_id));
    pm.attachLeafCache(nullptr);
    pm.setLeaf(7_id, 5_leaf); // detached: stash copy goes stale by design
    EXPECT_EQ(stash.leafOf(7_id), 42_leaf);
}

} // namespace
} // namespace proram
