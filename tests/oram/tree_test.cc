/** @file Unit tests for the binary-tree slot-arena storage. */

#include "oram/tree.hh"

#include <gtest/gtest.h>

#include <vector>

#include "util/logging.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

TEST(Bucket, OccupancyAndFreeSlots)
{
    BinaryTree t(1, 3);
    BucketRef b = t.bucket(0_node);
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_EQ(b.freeSlots(), 3u);
    EXPECT_TRUE(b.tryPlace(7_id, 0_leaf, 70));
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_TRUE(b.tryPlace(8_id, 0_leaf, 0));
    EXPECT_TRUE(b.tryPlace(9_id, 0_leaf, 0));
    EXPECT_EQ(b.occupancy(), 3u);
    EXPECT_EQ(b.freeSlots(), 0u);
    EXPECT_FALSE(b.tryPlace(10_id, 0_leaf, 0));
}

TEST(Bucket, PlacementFillsFirstDummySlot)
{
    BinaryTree t(1, 3);
    BucketRef b = t.bucket(0_node);
    b.tryPlace(1_id, 0_leaf, 10);
    b.tryPlace(2_id, 0_leaf, 20);
    b.tryPlace(3_id, 0_leaf, 30);
    EXPECT_EQ(b.id(0), 1_id);
    b.clearSlot(1);
    EXPECT_TRUE(b.isDummy(1));
    EXPECT_EQ(b.occupancy(), 2u);
    // Reuse reclaims the hole, not a new slot.
    EXPECT_TRUE(b.tryPlace(4_id, 0_leaf, 40));
    EXPECT_EQ(b.id(1), 4_id);
    EXPECT_EQ(b.data(1), 40u);
}

TEST(Bucket, ClearSlotIsIdempotent)
{
    BinaryTree t(1, 2);
    BucketRef b = t.bucket(0_node);
    b.tryPlace(5_id, 0_leaf, 0);
    b.clearSlot(0);
    b.clearSlot(0); // clearing a dummy must not inflate the free count
    EXPECT_EQ(b.freeSlots(), 2u);
    EXPECT_EQ(b.occupancy(), 0u);
}

TEST(Bucket, OccupancyScanMatchesCountThenDetectsRawCorruption)
{
    BinaryTree t(1, 4);
    BucketRef b = t.bucket(1_node);
    b.tryPlace(1_id, 0_leaf, 0);
    b.tryPlace(2_id, 0_leaf, 0);
    EXPECT_EQ(b.occupancyScan(), b.occupancy());
    // Corrupt a slot behind the bookkeeping's back: the O(1) count is
    // now stale and only the checked scan sees the truth.
    b.rawHeader(0) = SlotHeader{};
    EXPECT_EQ(b.occupancy(), 2u);
    EXPECT_EQ(b.occupancyScan(), 1u);
}

TEST(Tree, ArenaLayoutIsBucketMajor)
{
    BinaryTree t(2, 3);
    t.bucket(4_node).tryPlace(42_id, 1_leaf, 9); // node 4 is on path 1
    // Bucket b slot i lives at lane offset (b mod chunk)*Z+i of its
    // chunk; node 4 fits inside the default first chunk, so the raw
    // lane view and the typed accessors must agree. The slot header
    // carries the id and the leaf in one 8-byte word.
    const ArenaBackend::View v = t.arena().view(0);
    ASSERT_NE(v.headers, nullptr);
    EXPECT_EQ(v.headers[4 * 3 + 0].blockId(), 42_id);
    EXPECT_EQ(v.headers[4 * 3 + 0].leafLabel(), 1_leaf);
    EXPECT_EQ(v.data[4 * 3 + 0], 9u);
    EXPECT_EQ(t.slotId(4_node, 0), 42_id);
    EXPECT_EQ(t.slotLeaf(4_node, 0), 1_leaf);
    EXPECT_EQ(t.slotData(4_node, 0), 9u);
    EXPECT_EQ(t.slotLeaf(4_node, 1), kInvalidLeaf); // dummy slot
}

TEST(Tree, GeometryCounts)
{
    BinaryTree t(3, 4);
    EXPECT_EQ(t.levels(), 3u);
    EXPECT_EQ(t.numLeaves(), 8u);
    EXPECT_EQ(t.numBuckets(), 15u);
    EXPECT_EQ(t.z(), 4u);
}

TEST(Tree, RootIsOnEveryPath)
{
    BinaryTree t(4, 3);
    for (std::uint32_t s = 0; s < t.numLeaves(); ++s)
        EXPECT_EQ(t.nodeOnPath(Leaf{s}, 0_lvl), 0_node);
}

TEST(Tree, LeavesAreDistinctAndAtBottom)
{
    BinaryTree t(3, 3);
    // Leaf nodes occupy heap indices [7, 15).
    TreeIdx prev{0};
    for (std::uint32_t s = 0; s < t.numLeaves(); ++s) {
        const TreeIdx node = t.nodeOnPath(Leaf{s}, 3_lvl);
        EXPECT_GE(node.value(), 7u);
        EXPECT_LT(node.value(), 15u);
        if (s > 0) {
            EXPECT_NE(node, prev);
        }
        prev = node;
    }
}

TEST(Tree, PathIsConnectedParentChain)
{
    BinaryTree t(5, 3);
    for (Leaf s : {0_leaf, 13_leaf, 31_leaf}) {
        TreeIdx parent = t.nodeOnPath(s, 0_lvl);
        for (std::uint32_t l = 1; l <= t.levels(); ++l) {
            const TreeIdx node = t.nodeOnPath(s, Level{l});
            EXPECT_EQ(TreeIdx{(node.value() - 1) / 2}, parent)
                << "path " << s << " broken at level " << l;
            parent = node;
        }
    }
}

TEST(Tree, CommonLevelProperties)
{
    BinaryTree t(3, 3);
    // Same leaf: full depth.
    EXPECT_EQ(t.commonLevel(5_leaf, 5_leaf), 3_lvl);
    // Leaves 0 (000) and 7 (111) diverge at the root.
    EXPECT_EQ(t.commonLevel(0_leaf, 7_leaf), 0_lvl);
    // Leaves 6 (110) and 7 (111) share root + 2 levels.
    EXPECT_EQ(t.commonLevel(6_leaf, 7_leaf), 2_lvl);
    // Symmetric.
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = 0; b < 8; ++b)
            EXPECT_EQ(t.commonLevel(Leaf{a}, Leaf{b}),
                      t.commonLevel(Leaf{b}, Leaf{a}));
    }
}

// Eviction classifies each live stash slot by BinaryTree::commonLevel
// (OramScheme::evictOnto), so this pins that classify to its formula,
// levels - bit_width(a ^ b), with hand-computed levels.
TEST(EvictKernel, ScalarMatchesCommonLevelFormula)
{
    // Sparse arenas with big chunks: commonLevel touches no storage.
    const BinaryTree t16(16, 1, {ArenaKind::Sparse, 1u << 10});
    EXPECT_EQ(t16.commonLevel(Leaf{0x1234}, Leaf{0x1234}), Level{16});
    // diff 0x1234: bit_width 13.
    EXPECT_EQ(t16.commonLevel(Leaf{0}, Leaf{0x1234}), Level{3});
    // diff 0xEDCB: bit_width 16, the root only.
    EXPECT_EQ(t16.commonLevel(Leaf{0xFFFF}, Leaf{0x1234}), 0_lvl);
    EXPECT_EQ(t16.commonLevel(Leaf{0x8000}, Leaf{0x1234}), 0_lvl);
    EXPECT_EQ(t16.commonLevel(Leaf{1}, Leaf{0x1234}), Level{3});

    // A 32-level tree uses every label bit: a bit-31 difference
    // splits at the root, a bit-0 difference just above the leaves.
    const BinaryTree t32(32, 1, {ArenaKind::Sparse, 1u << 24});
    EXPECT_EQ(t32.commonLevel(Leaf{0x80000000u}, Leaf{0}), 0_lvl);
    EXPECT_EQ(t32.commonLevel(Leaf{0xFFFFFFFFu}, Leaf{0x7FFFFFFFu}),
              0_lvl);
    EXPECT_EQ(t32.commonLevel(Leaf{0x80001234u}, Leaf{0x80001235u}),
              Level{31});
    EXPECT_EQ(t32.commonLevel(Leaf{0xFFFFFFFFu}, Leaf{0xFFFFFFFFu}),
              Level{32});
}

TEST(Tree, CommonLevelMatchesSharedNodes)
{
    BinaryTree t(4, 3);
    for (std::uint32_t a = 0; a < t.numLeaves(); a += 3) {
        for (std::uint32_t b = 0; b < t.numLeaves(); b += 5) {
            const Level cl = t.commonLevel(Leaf{a}, Leaf{b});
            for (Level l{0}; l <= cl; ++l)
                EXPECT_EQ(t.nodeOnPath(Leaf{a}, l),
                          t.nodeOnPath(Leaf{b}, l));
            if (cl.value() < t.levels()) {
                EXPECT_NE(t.nodeOnPath(Leaf{a}, cl + 1),
                          t.nodeOnPath(Leaf{b}, cl + 1));
            }
        }
    }
}

TEST(Tree, OutOfRangePanics)
{
    BinaryTree t(3, 3);
    EXPECT_THROW(t.nodeOnPath(8_leaf, 0_lvl), SimPanic);
    EXPECT_THROW(t.nodeOnPath(0_leaf, 4_lvl), SimPanic);
}

TEST(Tree, CountRealBlocks)
{
    BinaryTree t(2, 2);
    EXPECT_EQ(t.countRealBlocks(), 0u);
    t.tryPlace(0_node, 1_id, 0_leaf, 0);
    t.tryPlace(4_node, 2_id, 0_leaf, 0);
    EXPECT_EQ(t.countRealBlocks(), 2u);
}

ArenaOptions
sparseOpts(std::uint32_t chunk_buckets)
{
    ArenaOptions o;
    o.kind = ArenaKind::Sparse;
    o.chunkBuckets = chunk_buckets;
    return o;
}

TEST(SparseTree, ImplicitChunksReadAllDummyWithoutMaterializing)
{
    // 6 levels = 127 buckets over 4-bucket chunks = 32 chunks.
    BinaryTree t(6, 3, sparseOpts(4));
    EXPECT_EQ(t.arena().chunksMaterialized(), 0u);
    EXPECT_EQ(t.arena().bytesResident(), 0u);
    for (TreeIdx n{0}; n.value() < t.numBuckets(); ++n) {
        EXPECT_EQ(t.occupancy(n), 0u);
        EXPECT_EQ(t.freeSlots(n), 3u);
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            EXPECT_EQ(t.slotId(n, i), kInvalidBlock);
            EXPECT_EQ(t.slotData(n, i), 0u);
        }
    }
    // Reads (and clearing already-dummy slots) never materialize.
    t.clearSlot(9_node, 1);
    EXPECT_EQ(t.bucket(40_node).occupancyScan(), 0u);
    EXPECT_EQ(t.countRealBlocks(), 0u);
    EXPECT_EQ(t.arena().chunksMaterialized(), 0u);
}

TEST(SparseTree, WritesMaterializeOnlyTouchedChunks)
{
    BinaryTree t(6, 3, sparseOpts(4));
    EXPECT_TRUE(t.tryPlace(0_node, 1_id, 0_leaf, 11));   // chunk 0
    EXPECT_TRUE(t.tryPlace(100_node, 2_id, 0_leaf, 22)); // chunk 25
    EXPECT_EQ(t.arena().chunksMaterialized(), 2u);
    EXPECT_EQ(t.arena().bytesResident(), 2 * t.arena().chunkBytes());
    EXPECT_EQ(t.slotId(0_node, 0), 1_id);
    EXPECT_EQ(t.slotData(100_node, 0), 22u);
    EXPECT_EQ(t.occupancy(100_node), 1u);
    EXPECT_EQ(t.countRealBlocks(), 2u);
    // Untouched chunks stay implicit.
    EXPECT_FALSE(t.arena().materialized(1));
    // Clearing the only real block keeps the chunk materialized but
    // returns its bucket to all-dummy.
    t.clearSlot(100_node, 0);
    EXPECT_EQ(t.occupancy(100_node), 0u);
    EXPECT_EQ(t.countRealBlocks(), 1u);
    EXPECT_EQ(t.arena().chunksMaterialized(), 2u);
}

TEST(SparseTree, OccupancyScanAfterRawCorruptionInFreshChunk)
{
    BinaryTree t(6, 4, sparseOpts(4));
    // rawHeader on an implicit chunk is a write: it must materialize
    // the chunk as all-dummy first, then hand out the reference.
    BucketRef b = t.bucket(77_node);
    b.rawHeader(2) = SlotHeader{9_id, 0_leaf};
    EXPECT_EQ(t.arena().chunksMaterialized(), 1u);
    // The raw write bypassed the free count: the O(1) occupancy is
    // stale (still all-free) and only the checked scan sees the
    // corruption - in a freshly materialized chunk whose other slots
    // must all read as dummies.
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_EQ(b.occupancyScan(), 1u);
    for (std::uint32_t i = 0; i < t.z(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(b.isDummy(i));
        }
    }
    // A neighbouring bucket of the same fresh chunk is untouched.
    EXPECT_EQ(t.bucket(78_node).occupancyScan(), 0u);
    b.rawHeader(2) = SlotHeader{};
    EXPECT_EQ(b.occupancyScan(), 0u);
}

TEST(SparseTree, BackendsAreFunctionallyIdentical)
{
    ArenaOptions dense;
    dense.kind = ArenaKind::Dense;
    dense.chunkBuckets = 8;
    const std::vector<ArenaOptions> opts{dense, sparseOpts(8)};
    // The same operation sequence must leave every backend with the
    // same visible slot state.
    std::vector<BinaryTree> trees;
    for (const ArenaOptions &o : opts)
        trees.emplace_back(5, 3, o);
    for (BinaryTree &t : trees) {
        for (std::uint64_t n = 0; n < t.numBuckets(); n += 7)
            t.tryPlace(TreeIdx{n}, BlockId{n},
                       Leaf{static_cast<std::uint32_t>(n % 32)}, n * 3);
        t.clearSlot(TreeIdx{7}, 0);
    }
    const BinaryTree &ref = trees.front();
    for (std::size_t k = 1; k < trees.size(); ++k) {
        const BinaryTree &t = trees[k];
        EXPECT_EQ(t.countRealBlocks(), ref.countRealBlocks());
        for (TreeIdx n{0}; n.value() < ref.numBuckets(); ++n) {
            EXPECT_EQ(t.occupancy(n), ref.occupancy(n));
            for (std::uint32_t i = 0; i < ref.z(); ++i) {
                EXPECT_EQ(t.slotId(n, i), ref.slotId(n, i));
                EXPECT_EQ(t.slotLeaf(n, i), ref.slotLeaf(n, i));
                if (t.slotId(n, i) != kInvalidBlock) {
                    EXPECT_EQ(t.slotData(n, i), ref.slotData(n, i));
                }
            }
        }
    }
}

TEST(SparseTree, BadChunkSizeIsFatal)
{
    ArenaOptions o;
    o.kind = ArenaKind::Sparse;
    o.chunkBuckets = 6; // not a power of two
    EXPECT_THROW(BinaryTree(4, 3, o), SimFatal);
}

} // namespace
} // namespace proram
