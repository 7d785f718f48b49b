/** @file Unit tests for the dense insertion-ordered ORAM stash. */

#include "oram/stash.hh"

#include <gtest/gtest.h>

#include <vector>

#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

/** Id space the unit stashes cover (every id used below is smaller). */
constexpr std::uint64_t kIds = 128;

/** Slot of live block @p id, found by walking the id lane (the way
 *  the eviction scan finds it). */
std::size_t
slotOfId(const Stash &s, BlockId id)
{
    for (std::size_t i = 0; i < s.slotCount(); ++i) {
        if (s.idLane()[i] == id)
            return i;
    }
    ADD_FAILURE() << "block " << id << " has no live slot";
    return 0;
}

/** Remove @p id the way eviction does: release its slot, then one
 *  compaction. */
void
evictId(Stash &s, BlockId id)
{
    s.releaseSlot(slotOfId(s, id));
    s.compact();
}

TEST(Stash, InsertFindErase)
{
    Stash s(10, kIds);
    EXPECT_TRUE(s.insert(5_id, 99, 3_leaf));
    EXPECT_TRUE(s.contains(5_id));
    ASSERT_NE(s.findData(5_id), nullptr);
    EXPECT_EQ(*s.findData(5_id), 99u);
    EXPECT_EQ(s.leafOf(5_id), 3_leaf);
    evictId(s, 5_id);
    EXPECT_FALSE(s.contains(5_id));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.slotCount(), 0u);
    EXPECT_EQ(s.findData(5_id), nullptr);
    EXPECT_EQ(s.leafOf(5_id), kInvalidLeaf);
    // Releasing a dead slot is a simulator bug, not a silent no-op.
    ASSERT_TRUE(s.insert(6_id, 0, 0_leaf));
    s.releaseSlot(0);
    EXPECT_THROW(s.releaseSlot(0), SimPanic);
}

TEST(Stash, DuplicateInsertRejected)
{
    Stash s(10, kIds);
    EXPECT_TRUE(s.insert(1_id, 1, 0_leaf));
    EXPECT_FALSE(s.insert(1_id, 2, 7_leaf));
    EXPECT_EQ(*s.findData(1_id), 1u);
    EXPECT_EQ(s.leafOf(1_id), 0_leaf);
}

TEST(Stash, ResidencyBitsetRejectsDuplicatesAcrossReleaseAndCompaction)
{
    Stash s(4, kIds);
    ASSERT_TRUE(s.insert(63_id, 1, 0_leaf)); // last bit of word 0
    ASSERT_TRUE(s.insert(64_id, 2, 0_leaf)); // first bit of word 1
    ASSERT_TRUE(s.insert(7_id, 3, 0_leaf));
    // Releasing a slot clears only that block's residency bit ...
    s.releaseSlot(slotOfId(s, 64_id));
    EXPECT_FALSE(s.contains(64_id));
    EXPECT_TRUE(s.contains(63_id));
    EXPECT_FALSE(s.insert(63_id, 9, 1_leaf));
    // ... a released block may come back before the compaction ...
    EXPECT_TRUE(s.insert(64_id, 4, 2_leaf));
    EXPECT_FALSE(s.insert(64_id, 5, 3_leaf));
    s.compact();
    // ... and the bits survive compaction, which moves slots.
    EXPECT_FALSE(s.insert(7_id, 6, 0_leaf));
    EXPECT_FALSE(s.insert(64_id, 6, 0_leaf));
    EXPECT_EQ(*s.findData(64_id), 4u);
    EXPECT_EQ(s.leafOf(64_id), 2_leaf);
    EXPECT_EQ(s.size(), 3u);
    // Ids outside the id space the bitset covers are never resident
    // and cannot be inserted.
    EXPECT_FALSE(s.contains(BlockId{kIds}));
    EXPECT_FALSE(s.contains(kInvalidBlock));
    EXPECT_THROW(s.insert(BlockId{kIds}, 0, 0_leaf), SimPanic);
}

TEST(Stash, CapacityIsSoft)
{
    Stash s(2, kIds);
    s.insert(1_id, 0, 0_leaf);
    s.insert(2_id, 0, 0_leaf);
    EXPECT_FALSE(s.overCapacity());
    s.insert(3_id, 0, 0_leaf);
    EXPECT_TRUE(s.overCapacity());
    EXPECT_EQ(s.size(), 3u);
}

TEST(Stash, IterationFollowsInsertionOrder)
{
    Stash s(10, kIds);
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
    Stash s(10, kIds);
    for (BlockId b : {4_id, 8_id, 15_id, 16_id, 23_id})
        s.insert(b, 0, 0_leaf);
    evictId(s, 8_id);
    evictId(s, 16_id);
    // Survivors keep their relative order; a reinsert goes to the end.
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id}));
    s.insert(8_id, 0, 0_leaf);
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id, 8_id}));
}

TEST(Stash, EvictionBySlotCompactsOnceAndKeepsSurvivorOrder)
{
    // One eviction pass: release many slots by number while walking
    // the lanes (numbers must stay valid throughout), then a single
    // compaction. Survivors come out in insertion order with their
    // own leaf and payload words.
    Stash s(8, kIds);
    for (std::uint64_t b = 0; b < 12; ++b)
        s.insert(BlockId{b + 20}, b * 10,
                 Leaf{static_cast<std::uint32_t>(b)});
    const std::size_t slots = s.slotCount();
    for (std::size_t slot : {11u, 0u, 5u, 6u, 2u, 9u})
        s.releaseSlot(slot);
    // Released slots are dead in place; nothing moved yet.
    EXPECT_EQ(s.slotCount(), slots);
    EXPECT_EQ(s.size(), 6u);
    EXPECT_EQ(s.idLane()[3], 23_id);
    EXPECT_EQ(s.idLane()[5], kInvalidBlock);
    s.compact();
    EXPECT_EQ(s.slotCount(), 6u);
    const std::vector<std::uint64_t> kept{1, 3, 4, 7, 8, 10};
    for (std::size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(s.idLane()[i], BlockId{kept[i] + 20}) << "slot " << i;
        EXPECT_EQ(s.leafLane()[i],
                  Leaf{static_cast<std::uint32_t>(kept[i])});
        EXPECT_EQ(s.dataLane()[i], kept[i] * 10);
    }
    // A second compaction with nothing dead is a no-op.
    s.compact();
    EXPECT_EQ(s.slotCount(), 6u);
}

TEST(Stash, CompactionFromTheFirstHoleKeepsOrder)
{
    // compact() starts at the lowest released slot. Holes at the head,
    // in the middle, at the tail and everywhere must all leave the
    // survivors in insertion order with their own lanes, and a second
    // round of releases after a compaction must start afresh.
    // Head, middle, tail, everywhere, and high slot released first.
    const std::vector<std::vector<std::size_t>> cases = {
        {0, 1, 2}, {5, 6, 9}, {13, 14, 15}, {0, 3, 6, 9, 12, 15}, {15, 0}};
    for (const std::vector<std::size_t> &holes : cases) {
        Stash s(8, kIds);
        for (std::uint64_t b = 0; b < 16; ++b)
            s.insert(BlockId{b + 40}, b * 7,
                     Leaf{static_cast<std::uint32_t>(b + 1)});
        std::vector<std::uint64_t> kept;
        for (std::uint64_t b = 0; b < 16; ++b) {
            bool hole = false;
            for (std::size_t h : holes)
                hole = hole || h == b;
            if (!hole)
                kept.push_back(b);
        }
        for (std::size_t h : holes)
            s.releaseSlot(h);
        s.compact();
        ASSERT_EQ(s.slotCount(), kept.size());
        for (std::size_t i = 0; i < kept.size(); ++i) {
            EXPECT_EQ(s.idLane()[i], BlockId{kept[i] + 40})
                << "slot " << i << ", first hole " << holes.front();
            EXPECT_EQ(s.leafLane()[i],
                      Leaf{static_cast<std::uint32_t>(kept[i] + 1)});
            EXPECT_EQ(s.dataLane()[i], kept[i] * 7);
        }
        // Second round: drop the new last slot, then the new first.
        const std::size_t last = s.slotCount() - 1;
        s.releaseSlot(last);
        s.compact();
        s.releaseSlot(0);
        s.compact();
        std::vector<BlockId> expect;
        for (std::size_t i = 1; i + 1 < kept.size(); ++i)
            expect.push_back(BlockId{kept[i] + 40});
        EXPECT_EQ(s.residentIds(), expect);
        EXPECT_EQ(s.size(), expect.size());
    }
}

TEST(Stash, OrderAndLookupsSurviveCompaction)
{
    // Churn enough dead entries through several release/compact
    // rounds; order and id -> entry mapping must hold throughout.
    Stash s(8, kIds);
    for (std::uint64_t b = 0; b < 64; ++b)
        s.insert(BlockId{b}, b * 2,
                 Leaf{static_cast<std::uint32_t>(b % 7)});
    for (std::uint64_t b = 0; b < 64; ++b) {
        if (b % 3 != 0)
            s.releaseSlot(slotOfId(s, BlockId{b}));
        if (b % 16 == 15)
            s.compact();
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
    Stash s(8, kIds);
    for (std::uint64_t b = 0; b < 6; ++b)
        s.insert(BlockId{b}, b + 100,
                 Leaf{static_cast<std::uint32_t>(b)});
    s.releaseSlot(slotOfId(s, 1_id));
    s.releaseSlot(slotOfId(s, 4_id));
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

TEST(Stash, TailWindowAppendsOnlyTheCommittedPrefix)
{
    // A path read writes candidates into the open window and commits
    // the real ones; entries past the committed prefix are ignored.
    // The window grows the lanes when it would run past their end.
    Stash s(1, kIds);
    ASSERT_TRUE(s.insert(3_id, 30, 3_leaf));
    const Stash::Tail t = s.openTail(40);
    for (std::uint64_t k = 0; k < 40; ++k) {
        t.ids[k] = BlockId{k + 50};
        t.leaves[k] = Leaf{static_cast<std::uint32_t>(k)};
        t.data[k] = k * 11;
    }
    s.commitTail(25);
    EXPECT_EQ(s.size(), 26u);
    EXPECT_EQ(s.slotCount(), 26u);
    EXPECT_TRUE(s.contains(74_id));
    EXPECT_FALSE(s.contains(75_id));
    EXPECT_EQ(s.leafOf(60_id), 10_leaf);
    EXPECT_EQ(*s.findData(60_id), 110u);
    EXPECT_EQ(s.residentIds().front(), 3_id);
    // The commit is where the duplicate and id-range checks live.
    const Stash::Tail dup = s.openTail(2);
    dup.ids[0] = 3_id;
    EXPECT_THROW(s.commitTail(1), SimPanic);
    Stash r(4, kIds);
    r.openTail(1).ids[0] = BlockId{kIds};
    EXPECT_THROW(r.commitTail(1), SimPanic);
}

TEST(Stash, BulkReleaseMatchesPerSlotRelease)
{
    Stash a(8, kIds), b(8, kIds);
    for (std::uint64_t k = 0; k < 20; ++k) {
        for (Stash *s : {&a, &b})
            s->insert(BlockId{k + 1}, k, Leaf{static_cast<std::uint32_t>(k)});
    }
    const std::vector<std::uint32_t> slots{17, 4, 9, 0, 12};
    for (std::uint32_t slot : slots)
        a.releaseSlot(slot);
    b.releaseSlots(slots.data(), slots.size());
    EXPECT_FALSE(b.compacted());
    EXPECT_EQ(a.size(), b.size());
    EXPECT_FALSE(b.contains(1_id));
    EXPECT_FALSE(b.contains(18_id));
    a.compact();
    b.compact();
    EXPECT_TRUE(b.compacted());
    EXPECT_EQ(a.residentIds(), b.residentIds());
    const std::uint32_t dead[] = {0};
    b.releaseSlots(dead, 1);
    EXPECT_THROW(b.releaseSlots(dead, 1), SimPanic);
}

TEST(Stash, UpdateLeafRefreshesResidentEntryOnly)
{
    Stash s(4, kIds);
    s.insert(6_id, 0, 2_leaf);
    s.updateLeaf(6_id, 11_leaf);
    EXPECT_EQ(s.leafOf(6_id), 11_leaf);
    s.updateLeaf(99_id, 5_leaf); // absent: must be a no-op, not an insert
    EXPECT_FALSE(s.contains(99_id));
    EXPECT_EQ(s.size(), 1u);
}

TEST(Stash, OccupancySampling)
{
    Stash s(10, kIds);
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
    Stash s(4, kIds);
    s.insert(7_id, 10, 0_leaf);
    *s.findData(7_id) = 20;
    EXPECT_EQ(*s.findData(7_id), 20u);
}

TEST(Stash, RandomizedOpsMatchVectorMirror)
{
    // Differential test against a plain vector of (id, leaf, data) in
    // insertion order - the mirror_data pattern: every operation is
    // applied to both, and the stash must agree with the mirror on
    // contents, order and every lookup after each step.
    struct MirrorEntry
    {
        BlockId id;
        Leaf leaf;
        std::uint64_t data;
    };
    constexpr std::uint64_t kSpace = 200;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Stash s(16, kSpace);
        std::vector<MirrorEntry> mirror;
        const auto expectSameContents = [&](int step) {
            std::size_t k = 0;
            s.forEachResident([&](const StashEntry &e) {
                ASSERT_LT(k, mirror.size());
                EXPECT_EQ(e.id, mirror[k].id) << "step " << step;
                EXPECT_EQ(e.leaf, mirror[k].leaf) << "step " << step;
                EXPECT_EQ(e.data, mirror[k].data) << "step " << step;
                ++k;
            });
            EXPECT_EQ(k, mirror.size()) << "step " << step;
        };
        const auto mirrorFind = [&](BlockId id) -> MirrorEntry * {
            for (MirrorEntry &e : mirror) {
                if (e.id == id)
                    return &e;
            }
            return nullptr;
        };
        for (int step = 0; step < 4000; ++step) {
            const BlockId id{rng.below(kSpace)};
            const Leaf leaf{static_cast<std::uint32_t>(rng.below(64))};
            switch (rng.below(6)) {
            case 0: { // insert
                const std::uint64_t data = rng.next();
                const bool fresh = mirrorFind(id) == nullptr;
                ASSERT_EQ(s.insert(id, data, leaf), fresh);
                if (fresh)
                    mirror.push_back({id, leaf, data});
                break;
            }
            case 1: { // release a live slot picked at random, then
                      // maybe compact (eviction's by-slot path)
                if (s.size() == 0)
                    break;
                std::size_t slot = rng.below(s.slotCount());
                while (s.idLane()[slot] == kInvalidBlock)
                    slot = (slot + 1) % s.slotCount();
                const BlockId victim = s.idLane()[slot];
                s.releaseSlot(slot);
                for (std::size_t i = 0; i < mirror.size(); ++i) {
                    if (mirror[i].id == victim) {
                        mirror.erase(mirror.begin() +
                                     static_cast<std::ptrdiff_t>(i));
                        break;
                    }
                }
                if (rng.below(3) == 0)
                    s.compact();
                break;
            }
            case 2: // compact
                s.compact();
                break;
            case 3: { // updateLeaf (no-op when absent)
                s.updateLeaf(id, leaf);
                if (MirrorEntry *e = mirrorFind(id))
                    e->leaf = leaf;
                break;
            }
            case 4: { // findData, and write through it
                std::uint64_t *p = s.findData(id);
                MirrorEntry *e = mirrorFind(id);
                ASSERT_EQ(p != nullptr, e != nullptr) << "block " << id;
                if (p != nullptr) {
                    ASSERT_EQ(*p, e->data);
                    *p = e->data = rng.next();
                }
                break;
            }
            default: { // leafOf / contains
                const MirrorEntry *e = mirrorFind(id);
                ASSERT_EQ(s.contains(id), e != nullptr);
                ASSERT_EQ(s.leafOf(id),
                          e != nullptr ? e->leaf : kInvalidLeaf);
                break;
            }
            }
            ASSERT_EQ(s.size(), mirror.size()) << "step " << step;
            if (step % 64 == 0)
                expectSameContents(step);
        }
        expectSameContents(-1);
    }
}

} // namespace
} // namespace proram
