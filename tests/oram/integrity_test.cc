/** @file Negative tests: the integrity checker must detect every
 *  class of corruption it claims to check. */

#include "oram/integrity.hh"

#include <gtest/gtest.h>

#include <string>

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
cfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 10;
    c.seed = 77;
    return c;
}

/** Locate the tree slot currently holding @p id. */
struct SlotLoc
{
    bool found = false;
    std::uint64_t node = 0;
    std::uint32_t i = 0;
};

SlotLoc
findSlot(UnifiedOram &u, BlockId id)
{
    const BinaryTree &t = u.engine().tree();
    for (std::uint64_t node = 0; node < t.numBuckets(); ++node) {
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            if (t.slotId(TreeIdx{node}, i) == id)
                return {true, node, i};
        }
    }
    return {};
}

TEST(Integrity, HealthyOramPasses)
{
    UnifiedOram u(cfg());
    u.initialize();
    const auto rep = checkIntegrity(u);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.violations.empty());
}

TEST(Integrity, DetectsLostBlock)
{
    UnifiedOram u(cfg());
    u.initialize();
    const SlotLoc loc = findSlot(u, 5_id);
    ASSERT_TRUE(loc.found);
    // Drop the block behind the bookkeeping's back (raw corruption).
    u.engine().tree().bucket(TreeIdx{loc.node}).rawHeader(loc.i) =
        SlotHeader{};
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
    bool found = false;
    for (const auto &v : rep.violations)
        found = found || v.find("lost") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Integrity, DetectsDuplicateBlock)
{
    UnifiedOram u(cfg());
    u.initialize();
    // Stash copy + tree copy at once.
    ASSERT_TRUE(findSlot(u, 9_id).found);
    u.engine().stash().insert(9_id, 0, u.posMap().leafOf(9_id));
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
    bool found = false;
    for (const auto &v : rep.violations)
        found = found || v.find("duplicated") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Integrity, DetectsOffPathBlock)
{
    UnifiedOram u(cfg());
    u.initialize();
    // Remap a tree-resident block without moving it: unless the new
    // random leaf happens to share the whole path, it is off-path.
    const BlockId victim{3};
    ASSERT_TRUE(findSlot(u, victim).found);
    const Leaf old_leaf = u.posMap().leafOf(victim);
    u.posMap().setLeaf(
        victim, Leaf{static_cast<std::uint32_t>(
                    (old_leaf.value() +
                     u.engine().tree().numLeaves() / 2) %
                    u.engine().tree().numLeaves())});
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
}

TEST(Integrity, DetectsStaleHeaderLeaf)
{
    UnifiedOram u(cfg());
    u.initialize();
    // readPath trusts the leaf in the slot header, so the checker must
    // catch a header that disagrees with the position map even when
    // the block itself sits on its mapped path.
    const BlockId victim{11};
    const SlotLoc loc = findSlot(u, victim);
    ASSERT_TRUE(loc.found);
    BucketRef b = u.engine().tree().bucket(TreeIdx{loc.node});
    ASSERT_EQ(b.leaf(loc.i), u.posMap().leafOf(victim));
    ASSERT_TRUE(checkIntegrity(u).ok);
    SlotHeader &h = b.rawHeader(loc.i);
    h.leaf = (h.leaf + 1) %
             static_cast<std::uint32_t>(u.engine().tree().numLeaves());
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
    ASSERT_EQ(rep.violations.size(), 1u);
    EXPECT_NE(rep.violations[0].find("slot header leaf"),
              std::string::npos);
}

TEST(Integrity, DetectsSuperBlockLeafMismatch)
{
    UnifiedOram u(cfg());
    u.initialize(2); // static pairs
    // Tear one pair's member onto a different leaf, but keep it in
    // the stash so the path invariant itself still holds.
    const SlotLoc loc = findSlot(u, 0_id);
    if (loc.found) {
        BucketRef b = u.engine().tree().bucket(TreeIdx{loc.node});
        u.engine().stash().insert(0_id, b.data(loc.i),
                                  u.posMap().leafOf(0_id));
        b.clearSlot(loc.i);
    }
    u.posMap().setLeaf(
        0_id, Leaf{static_cast<std::uint32_t>(
                  (u.posMap().leafOf(1_id).value() + 1) %
                  u.engine().tree().numLeaves())});
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
    bool found = false;
    for (const auto &v : rep.violations)
        found = found || v.find("different leaves") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Integrity, DetectsSuperBlockGeometryMismatch)
{
    UnifiedOram u(cfg());
    u.initialize(2);
    u.posMap().entry(4_id).sbSizeLog = 0; // half of pair (4,5) shrunk
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
}

TEST(Integrity, DetectsPosMapBlockInSuperBlock)
{
    UnifiedOram u(cfg());
    u.initialize();
    const BlockId pm{u.space().numDataBlocks() + 1};
    u.posMap().entry(pm).sbSizeLog = 1;
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
}

TEST(Integrity, DetectsOversizedStridedGroup)
{
    UnifiedOram u(cfg());
    u.initialize();
    // size 4 (log 2) with stride 16 (log 4): span 64 > fanout 32.
    for (std::uint32_t i = 0; i < 4; ++i) {
        PosEntry &e = u.posMap().entry(BlockId{i * 16u});
        e.sbSizeLog = 2;
        e.sbStrideLog = 4;
    }
    const auto rep = checkIntegrity(u);
    EXPECT_FALSE(rep.ok);
}

/** Run @p read, expect a SimPanic, and return its message. */
template <typename Fn>
std::string
panicMessage(Fn &&read)
{
    try {
        read();
    } catch (const SimPanic &e) {
        return e.what();
    }
    ADD_FAILURE() << "no SimPanic";
    return {};
}

TEST(Integrity, ReadPathPanicsOnBlockDuplicatedBetweenTreeAndStash)
{
    // The engine's own check, not checkIntegrity's report: a path read
    // that would bring a block already in the stash panics, naming it.
    for (SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        OramConfig c = cfg();
        c.scheme = kind;
        UnifiedOram u(c);
        u.initialize();
        ASSERT_TRUE(findSlot(u, 9_id).found);
        const Leaf leaf = u.posMap().leafOf(9_id);
        ASSERT_TRUE(u.engine().stash().insert(9_id, 0, leaf));
        const std::string msg =
            panicMessage([&] { u.engine().readPath(leaf); });
        EXPECT_NE(msg.find("block 9 duplicated between tree and stash"),
                  std::string::npos)
            << schemeKindName(kind) << ": " << msg;
    }
}

TEST(Integrity, ReadPathPanicsOnTreeBlockOutsideTheIdSpace)
{
    // A slot header naming an id past the position map's range cannot
    // enter the stash: the path read panics, naming the id.
    for (SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        OramConfig c = cfg();
        c.scheme = kind;
        UnifiedOram u(c);
        u.initialize();
        const BlockId bad{u.posMap().size()};
        const Leaf leaf = u.posMap().leafOf(9_id);
        BinaryTree &t = u.engine().tree();
        bool planted = false;
        for (Level l{0}; l <= t.leafLevel() && !planted; ++l)
            planted = t.tryPlace(t.nodeOnPath(leaf, l), bad, leaf, 0);
        ASSERT_TRUE(planted);
        const std::string msg =
            panicMessage([&] { u.engine().readPath(leaf); });
        EXPECT_NE(msg.find("block " + std::to_string(bad.value()) +
                           " outside the"),
                  std::string::npos)
            << schemeKindName(kind) << ": " << msg;
    }
}

} // namespace
} // namespace proram
