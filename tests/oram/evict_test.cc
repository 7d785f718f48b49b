/**
 * @file
 * Differential test of the engine's bucket-granular path moves
 * (BinaryTree::drainBucket / drainBucketOnLeaf / fillBucket into and
 * out of the stash's tail window, OramScheme::evictOnto's capped
 * per-level gather and bulk release) against a per-slot reference:
 * one stash insert and one clearSlot per drained slot, two classify
 * passes, one pool every level group is pushed onto and one tryPlace
 * per block. Single randomized evictions cover odd tree shapes; the
 * sustained runs drive thousands of remapping accesses with
 * background eviction and compare the whole state after each one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "oram/ring_oram.hh"
#include "oram/scheme.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

/** Block ids the position maps cover: room for the tree blocks a
 *  case places plus a 150-block stash. */
constexpr std::uint64_t kIds = 8192;

/** Reference path read: slot by slot, stash insert then clearSlot. */
void
referenceDrain(BinaryTree &tree, Stash &stash, Leaf leaf)
{
    for (Level level{0}; level <= tree.leafLevel(); ++level) {
        const TreeIdx node = tree.nodeOnPath(leaf, level);
        if (tree.occupancy(node) == 0)
            continue;
        for (std::uint32_t i = 0; i < tree.z(); ++i) {
            const SlotHeader h = tree.slotHeader(node, i);
            if (h.isDummy())
                continue;
            ASSERT_TRUE(stash.insert(h.blockId(), tree.slotData(node, i),
                                     h.leafLabel()));
            tree.clearSlot(node, i);
        }
    }
}

/** Reference Ring ORAM read: only the slots whose header leaf is
 *  @p leaf move, slot by slot. */
void
referenceDrainOnLeaf(BinaryTree &tree, Stash &stash, Leaf leaf)
{
    for (Level level{0}; level <= tree.leafLevel(); ++level) {
        const TreeIdx node = tree.nodeOnPath(leaf, level);
        for (std::uint32_t i = 0; i < tree.z(); ++i) {
            const SlotHeader h = tree.slotHeader(node, i);
            if (h.isDummy() || h.leafLabel() != leaf)
                continue;
            ASSERT_TRUE(stash.insert(h.blockId(), tree.slotData(node, i),
                                     h.leafLabel()));
            tree.clearSlot(node, i);
        }
    }
}

/** Reference greedy eviction: histogram pass, a scatter pass that
 *  recomputes each level, every group pushed onto one pool, popped
 *  while the bucket has room, one tryPlace per block. */
void
referenceEvict(BinaryTree &tree, Stash &stash, Leaf leaf)
{
    const std::uint32_t levels = tree.levels();
    const std::size_t slots = stash.slotCount();
    const BlockId *ids = stash.idLane();
    const Leaf *leaves = stash.leafLane();
    const std::uint64_t *payloads = stash.dataLane();
    std::vector<std::uint32_t> hist(levels + 1, 0);
    std::vector<std::uint32_t> start(levels + 1, 0);
    std::vector<std::uint32_t> cursor(levels + 1, 0);
    std::vector<std::uint32_t> sorted(slots);
    std::vector<std::uint32_t> pool;
    for (std::size_t i = 0; i < slots; ++i) {
        if (ids[i] != kInvalidBlock)
            ++hist[tree.commonLevel(leaves[i], leaf).value()];
    }
    std::uint32_t offset = 0;
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        start[l] = offset;
        cursor[l] = offset;
        offset += hist[l];
    }
    for (std::size_t i = 0; i < slots; ++i) {
        if (ids[i] != kInvalidBlock)
            sorted[cursor[tree.commonLevel(leaves[i], leaf).value()]++] =
                static_cast<std::uint32_t>(i);
    }
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        for (std::uint32_t s = start[l]; s < start[l] + hist[l]; ++s)
            pool.push_back(sorted[s]);
        const TreeIdx node = tree.nodeOnPath(leaf, Level{l});
        while (!pool.empty() && tree.freeSlots(node) != 0) {
            const std::uint32_t slot = pool.back();
            pool.pop_back();
            ASSERT_TRUE(tree.tryPlace(node, ids[slot], leaves[slot],
                                      payloads[slot]));
            stash.releaseSlot(slot);
        }
    }
    stash.compact();
    stash.sampleOccupancy();
}

/** Config whose tree is exactly @p levels deep. */
OramConfig
configWithLevels(std::uint32_t levels, std::uint32_t z, SchemeKind kind,
                 ArenaOptions arena)
{
    OramConfig cfg;
    cfg.z = z;
    cfg.scheme = kind;
    cfg.arena = arena;
    cfg.seed = 5;
    cfg.numDataBlocks = 2;
    while (cfg.levels() < levels)
        cfg.numDataBlocks += cfg.numDataBlocks / 2 + 1;
    return cfg;
}

/** One engine plus its position map; a case builds two identical
 *  twins and evicts one with the engine, one with the reference. */
struct Twin
{
    explicit Twin(const OramConfig &cfg)
        : posMap(kIds, Leaf{1u << cfg.levels()}),
          scheme(makeOramScheme(cfg, posMap))
    {
    }

    PositionMap posMap;
    std::unique_ptr<OramScheme> scheme;
};

/** A leaf sharing a random-length prefix with @p target, or (one
 *  time in three) a uniform one, so every level gets candidates and
 *  the deep buckets see contention. */
Leaf
leafNear(Rng &rng, Leaf target, std::uint32_t levels)
{
    const std::uint64_t leaves = 1ULL << levels;
    if (rng.below(3) == 0)
        return Leaf{static_cast<std::uint32_t>(rng.below(leaves))};
    const std::uint64_t low = 1ULL << rng.below(levels + 1);
    return Leaf{static_cast<std::uint32_t>(
        target.value() ^ rng.below(low))};
}

void
expectSameState(const Twin &ref, const Twin &got, const char *what)
{
    const BinaryTree &a = ref.scheme->tree();
    const BinaryTree &b = got.scheme->tree();
    for (std::uint64_t n = 0; n < a.numBuckets(); ++n) {
        const TreeIdx node{n};
        ASSERT_EQ(a.freeSlots(node), b.freeSlots(node))
            << what << " node " << n;
        for (std::uint32_t i = 0; i < a.z(); ++i) {
            const SlotHeader ha = a.slotHeader(node, i);
            const SlotHeader hb = b.slotHeader(node, i);
            ASSERT_EQ(ha.id, hb.id) << what << " node " << n << " slot " << i;
            ASSERT_EQ(ha.leaf, hb.leaf)
                << what << " node " << n << " slot " << i;
            // A dummy slot's payload is unspecified (DESIGN.md
            // Sec. 12); a real block's must match.
            if (!ha.isDummy()) {
                ASSERT_EQ(a.slotData(node, i), b.slotData(node, i))
                    << what << " node " << n << " slot " << i;
            }
        }
    }
    EXPECT_EQ(a.arena().chunksMaterialized(),
              b.arena().chunksMaterialized())
        << what;

    const Stash &sa = ref.scheme->stash();
    const Stash &sb = got.scheme->stash();
    ASSERT_EQ(sa.slotCount(), sb.slotCount()) << what;
    EXPECT_EQ(sa.size(), sb.size()) << what;
    for (std::size_t i = 0; i < sa.slotCount(); ++i) {
        EXPECT_EQ(sa.idLane()[i], sb.idLane()[i]) << what << " slot " << i;
        EXPECT_EQ(sa.leafLane()[i], sb.leafLane()[i])
            << what << " slot " << i;
        EXPECT_EQ(sa.dataLane()[i], sb.dataLane()[i])
            << what << " slot " << i;
    }
    EXPECT_EQ(sa.occupancy().count(), sb.occupancy().count()) << what;
}

/**
 * One randomized case: build identical twins (random tree blocks via
 * placeInitial, holes punched into the eviction path's buckets so the
 * fill must skip occupied slots, 0-150 stash blocks biased toward the
 * eviction leaf), then evict the reference twin with the per-slot
 * reference and the other with the engine, and compare slot by slot.
 */
void
runCase(std::uint64_t seed, SchemeKind kind, ArenaKind arena_kind)
{
    Rng rng(seed);
    const std::uint32_t levels = 3 + static_cast<std::uint32_t>(rng.below(12));
    const std::uint32_t z = 1 + static_cast<std::uint32_t>(rng.below(5));
    ArenaOptions arena;
    arena.kind = arena_kind;
    arena.chunkBuckets = arena_kind == ArenaKind::Sparse
                             ? 1u << rng.below(9)
                             : ArenaBackend::kDefaultChunkBuckets;
    const OramConfig cfg = configWithLevels(levels, z, kind, arena);
    ASSERT_EQ(cfg.levels(), levels);
    Twin ref(cfg), got(cfg);
    char what[96];
    std::snprintf(what, sizeof(what),
                  "seed %llu %s L=%u Z=%u %s/%u",
                  static_cast<unsigned long long>(seed),
                  kind == SchemeKind::Ring ? "ring" : "path", levels, z,
                  arenaKindName(arena_kind), arena.chunkBuckets);

    // Ring evicts onto its schedule: move both twins to a random
    // schedule position first (an empty tree's eviction pass moves
    // nothing).
    Leaf target{static_cast<std::uint32_t>(rng.below(1ULL << levels))};
    if (kind == SchemeKind::Ring) {
        const std::uint64_t skip = rng.below(1ULL << levels);
        for (std::uint64_t g = 0; g < skip; ++g) {
            ref.scheme->dummyAccess();
            got.scheme->dummyAccess();
        }
        const auto &ring = dynamic_cast<const RingOram &>(*got.scheme);
        target = ring.evictionLeafAt(ring.evictionsRun());
    }

    std::vector<std::uint64_t> ids(kIds);
    for (std::uint64_t i = 0; i < kIds; ++i)
        ids[i] = i;
    for (std::uint64_t i = kIds; i-- > 1;)
        std::swap(ids[i], ids[rng.below(i + 1)]);
    std::size_t next_id = 0;

    // Half the cases leave the tree nearly empty, so a sparse arena
    // still has implicit chunks on the eviction path.
    const std::uint64_t tree_slots = ((2ULL << levels) - 1) * z;
    const std::uint64_t placed =
        rng.below(2) == 0
            ? rng.below(16)
            : rng.below(std::min<std::uint64_t>(tree_slots, 4000) + 1);
    for (std::uint64_t k = 0; k < placed; ++k) {
        const BlockId id{ids[next_id++]};
        const Leaf leaf = leafNear(rng, target, levels);
        const std::uint64_t data = rng.next();
        for (Twin *t : {&ref, &got}) {
            t->posMap.setLeaf(id, leaf);
            t->scheme->placeInitial(id, data);
        }
    }
    for (std::uint32_t l = 0; l <= levels; ++l) {
        const TreeIdx node = ref.scheme->tree().nodeOnPath(target, Level{l});
        for (std::uint32_t i = 0; i < z; ++i) {
            if (rng.below(3) != 0)
                continue;
            ref.scheme->tree().clearSlot(node, i);
            got.scheme->tree().clearSlot(node, i);
        }
    }
    const std::uint64_t stashed = rng.below(151);
    for (std::uint64_t k = 0; k < stashed; ++k) {
        const BlockId id{ids[next_id++]};
        const Leaf leaf = leafNear(rng, target, levels);
        const std::uint64_t data = rng.next();
        for (Twin *t : {&ref, &got}) {
            t->posMap.setLeaf(id, leaf);
            t->scheme->stash().insert(id, data, leaf);
        }
    }

    if (kind == SchemeKind::Ring) {
        referenceDrain(ref.scheme->tree(), ref.scheme->stash(), target);
        referenceEvict(ref.scheme->tree(), ref.scheme->stash(), target);
        EXPECT_EQ(got.scheme->dummyAccess(), target) << what;
    } else {
        referenceEvict(ref.scheme->tree(), ref.scheme->stash(), target);
        got.scheme->writePath(target);
    }
    expectSameState(ref, got, what);
}

class EvictDifferential
    : public ::testing::TestWithParam<std::tuple<SchemeKind, ArenaKind>>
{
};

TEST_P(EvictDifferential, MatchesThePerSlotReference)
{
    const auto [kind, arena] = GetParam();
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        runCase(seed * 1000 + static_cast<std::uint64_t>(kind) * 10 +
                    static_cast<std::uint64_t>(arena),
                kind, arena);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvictDifferential,
    ::testing::Combine(::testing::Values(SchemeKind::Path,
                                         SchemeKind::Ring),
                       ::testing::Values(ArenaKind::Dense,
                                         ArenaKind::Sparse)),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               "_" + arenaKindName(std::get<1>(info.param));
    });

TEST(EvictDifferential, ReadPathDrainMatchesThePerSlotReference)
{
    // Path ORAM's readPath is the shared drain: after a random
    // placement, reading a path with the engine and with the per-slot
    // reference leaves the same tree and the same stash order.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const std::uint32_t levels =
            3 + static_cast<std::uint32_t>(rng.below(12));
        const std::uint32_t z = 1 + static_cast<std::uint32_t>(rng.below(5));
        const OramConfig cfg =
            configWithLevels(levels, z, SchemeKind::Path, ArenaOptions{});
        Twin ref(cfg), got(cfg);
        const Leaf target{
            static_cast<std::uint32_t>(rng.below(1ULL << levels))};
        const std::uint64_t placed = rng.below(3000);
        for (std::uint64_t k = 0; k < placed; ++k) {
            const BlockId id{k};
            const Leaf leaf = leafNear(rng, target, levels);
            for (Twin *t : {&ref, &got}) {
                t->posMap.setLeaf(id, leaf);
                t->scheme->placeInitial(id, k * 3);
            }
        }
        referenceDrain(ref.scheme->tree(), ref.scheme->stash(), target);
        got.scheme->readPath(target);
        expectSameState(ref, got, "readPath");
    }
}

/** Counts of what one sustained run exercised. */
struct SustainedCoverage
{
    std::uint64_t backgroundEvictions = 0;
    /** Evictions onto a path holding a bucket that was neither empty
     *  nor full: the fill's dummy-slot fallback. */
    std::uint64_t partialBucketFills = 0;
};

/**
 * Sustained differential run: a nearly full tree (half full at Z = 1,
 * three quarters at Z = 2-3, more above, where wider buckets absorb
 * more) and a stash capacity of a few blocks, so the stash runs over
 * it often; then @p accesses data accesses, each a read of the
 * block's path, a remap of the block, the write half, and background
 * evictions while the stash is over capacity. The reference twin runs
 * the same protocol through the per-slot reference moves: Path ORAM
 * evicts onto the read path and background-evicts onto the twin's own
 * random leaf (the two RNGs stay in step); Ring ORAM reads the
 * interest set and runs the scheduled eviction every A-th access and
 * for each background eviction. With @p extra_evictions, every
 * seventh access also evicts onto a random path it did not read,
 * whose buckets still hold blocks. Tree slots, free counts and stash
 * order are compared after every access.
 */
SustainedCoverage
runSustained(SchemeKind kind, std::uint32_t z, ArenaKind arena_kind,
             bool extra_evictions, std::uint64_t seed,
             std::uint32_t accesses)
{
    constexpr std::uint32_t kLevels = 7;
    ArenaOptions arena;
    arena.kind = arena_kind;
    arena.chunkBuckets = arena_kind == ArenaKind::Sparse
                             ? 8
                             : ArenaBackend::kDefaultChunkBuckets;
    OramConfig cfg = configWithLevels(kLevels, z, kind, arena);
    cfg.stashCapacity = z < 6 ? 8 : 2;
    Twin ref(cfg), got(cfg);
    SustainedCoverage seen;
    char what[64];
    std::snprintf(what, sizeof(what), "%s Z=%u %s",
                  kind == SchemeKind::Ring ? "ring" : "path", z,
                  arenaKindName(arena_kind));
    if (cfg.levels() != kLevels) {
        ADD_FAILURE() << what << ": tree depth " << cfg.levels();
        return seen;
    }

    Rng rng(seed);
    const std::uint64_t leaves = 1ULL << kLevels;
    const auto randomLeaf = [&] {
        return Leaf{static_cast<std::uint32_t>(rng.below(leaves))};
    };
    const std::uint64_t tree_slots = ((2ULL << kLevels) - 1) * z;
    // Wider buckets absorb more before the stash backs up.
    const std::uint64_t blocks = z == 1   ? tree_slots / 2
                                 : z <= 3 ? tree_slots * 3 / 4
                                 : z == 4 ? tree_slots * 13 / 16
                                          : tree_slots * 7 / 8;
    for (std::uint64_t k = 0; k < blocks; ++k) {
        const Leaf leaf = randomLeaf();
        const std::uint64_t data = rng.next();
        for (Twin *t : {&ref, &got}) {
            t->posMap.setLeaf(BlockId{k}, leaf);
            t->scheme->placeInitial(BlockId{k}, data);
        }
    }

    BinaryTree &rtree = ref.scheme->tree();
    Stash &rstash = ref.scheme->stash();
    const RingOram *ring = dynamic_cast<const RingOram *>(got.scheme.get());
    const std::uint32_t ring_a = cfg.resolvedRingA();
    std::uint64_t ring_accesses = 0;
    std::uint64_t ring_evictions = 0;
    // Reference scheduled eviction: drain the next reverse-lex path
    // whole, then evict onto it.
    const auto refScheduled = [&] {
        const Leaf ev = ring->evictionLeafAt(ring_evictions++);
        referenceDrain(rtree, rstash, ev);
        referenceEvict(rtree, rstash, ev);
        return ev;
    };

    expectSameState(ref, got, what);
    for (std::uint32_t step = 0;
         step < accesses && !::testing::Test::HasFailure(); ++step) {
        const BlockId b{rng.below(blocks)};
        const Leaf leaf = got.posMap.leafOf(b);
        if (ring != nullptr)
            referenceDrainOnLeaf(rtree, rstash, leaf);
        else
            referenceDrain(rtree, rstash, leaf);
        got.scheme->readPath(leaf);
        EXPECT_TRUE(got.scheme->stash().contains(b)) << what;

        const Leaf fresh = randomLeaf();
        for (Twin *t : {&ref, &got})
            t->posMap.setLeaf(b, fresh);

        if (ring != nullptr) {
            if (++ring_accesses % ring_a == 0)
                refScheduled();
            else
                rstash.sampleOccupancy();
        } else {
            referenceEvict(rtree, rstash, leaf);
        }
        got.scheme->writePath(leaf);

        std::uint32_t background = 0;
        while (got.scheme->stash().overCapacity()) {
            Leaf expect_leaf;
            if (ring != nullptr) {
                expect_leaf = refScheduled();
            } else {
                expect_leaf = ref.scheme->randomLeaf();
                referenceDrain(rtree, rstash, expect_leaf);
                referenceEvict(rtree, rstash, expect_leaf);
            }
            EXPECT_EQ(got.scheme->dummyAccess(), expect_leaf) << what;
            ++seen.backgroundEvictions;
            if (++background > 10000) {
                ADD_FAILURE() << what << ": background eviction stalled";
                return seen;
            }
        }
        EXPECT_FALSE(rstash.overCapacity()) << what;

        if (extra_evictions && step % 7 == 3) {
            const Leaf target = randomLeaf();
            for (std::uint32_t l = 0; l <= kLevels; ++l) {
                const std::uint32_t used = rtree.occupancy(
                    rtree.nodeOnPath(target, Level{l}));
                if (used != 0 && used != z) {
                    ++seen.partialBucketFills;
                    break;
                }
            }
            referenceEvict(rtree, rstash, target);
            got.scheme->writePath(target);
        }
        expectSameState(ref, got, what);
    }
    return seen;
}

class SustainedDifferential
    : public ::testing::TestWithParam<std::tuple<SchemeKind, std::uint32_t>>
{
};

TEST_P(SustainedDifferential, EveryAccessMatchesThePerSlotReference)
{
    const auto [kind, z] = GetParam();
    // Alternate the arena backend across Z so both are driven.
    const ArenaKind arena = z % 2 == 0 ? ArenaKind::Sparse : ArenaKind::Dense;
    const SustainedCoverage seen =
        runSustained(kind, z, arena, kind == SchemeKind::Path,
                     900 + z * 10 + static_cast<std::uint64_t>(kind), 2000);
    if (HasFailure())
        return;
    // The run must have exercised what it claims to cover.
    EXPECT_GT(seen.backgroundEvictions, 0u);
    if (kind == SchemeKind::Path && z > 1)
        EXPECT_GT(seen.partialBucketFills, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SustainedDifferential,
    ::testing::Combine(::testing::Values(SchemeKind::Path,
                                         SchemeKind::Ring),
                       ::testing::Values(1u, 2u, 3u, 4u, 6u)),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               "_Z" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace proram
