/** @file Unit tests for the set-associative cache. */

#include "mem/cache.hh"

#include <gtest/gtest.h>

#include <vector>

#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

CacheConfig
tiny(std::uint32_t ways = 2, std::uint64_t sets = 4)
{
    // lineBytes 128; size = sets * ways * 128.
    return CacheConfig{sets * ways * 128, ways, 128};
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c(tiny());
    EXPECT_FALSE(c.access(5_id, OpType::Read));
    c.insert(5_id, false);
    EXPECT_TRUE(c.access(5_id, OpType::Read));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, ProbeDoesNotTouchLruOrStats)
{
    SetAssocCache c(tiny(2, 1));
    c.insert(0_id, false); // set 0
    c.insert(1_id, false); // careful: set = block & (numSets-1); 1 set
    // both map to the single set; set is now {0, 1} with 1 MRU.
    const auto hits_before = c.hits();
    EXPECT_TRUE(c.probe(0_id));
    EXPECT_FALSE(c.probe(7_id));
    EXPECT_EQ(c.hits(), hits_before);
    // Insert a third block: LRU victim must still be 0 (probe must
    // not have refreshed it).
    auto v = c.insert(2_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 0_id);
}

TEST(Cache, LruEviction)
{
    SetAssocCache c(tiny(2, 1));
    c.insert(10_id, false);
    c.insert(20_id, false);
    c.access(10_id, OpType::Read); // 10 becomes MRU
    auto v = c.insert(30_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 20_id);
    EXPECT_TRUE(c.probe(10_id));
    EXPECT_TRUE(c.probe(30_id));
    EXPECT_FALSE(c.probe(20_id));
}

TEST(Cache, WriteSetsDirtyAndEvictionReportsIt)
{
    SetAssocCache c(tiny(1, 1));
    c.insert(1_id, false);
    c.access(1_id, OpType::Write);
    auto v = c.insert(2_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 1_id);
    EXPECT_TRUE(v->dirty);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(Cache, InsertDirtyFlag)
{
    SetAssocCache c(tiny(1, 1));
    c.insert(1_id, true);
    auto v = c.insert(2_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->dirty);
}

TEST(Cache, ReinsertMergesDirtyAndDoesNotEvict)
{
    SetAssocCache c(tiny(1, 1));
    c.insert(1_id, false);
    auto v = c.insert(1_id, true);
    EXPECT_FALSE(v.has_value());
    auto v2 = c.insert(2_id, false);
    ASSERT_TRUE(v2.has_value());
    EXPECT_TRUE(v2->dirty);
}

TEST(Cache, InvalidateReturnsDirtyState)
{
    SetAssocCache c(tiny());
    c.insert(4_id, false);
    c.access(4_id, OpType::Write);
    auto d = c.invalidate(4_id);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(*d);
    EXPECT_FALSE(c.probe(4_id));
    EXPECT_FALSE(c.invalidate(4_id).has_value());
}

TEST(Cache, MarkDirty)
{
    SetAssocCache c(tiny(1, 1));
    c.insert(3_id, false);
    c.markDirty(3_id);
    auto v = c.insert(7_id, false); // 7 & 0 == 0? sets=1: same set
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->dirty);
}

TEST(Cache, SetsIsolateConflicts)
{
    SetAssocCache c(tiny(1, 4)); // 4 sets, direct mapped
    c.insert(0_id, false);
    c.insert(1_id, false);
    c.insert(2_id, false);
    c.insert(3_id, false);
    // All four coexist (different sets).
    EXPECT_TRUE(c.probe(0_id));
    EXPECT_TRUE(c.probe(1_id));
    EXPECT_TRUE(c.probe(2_id));
    EXPECT_TRUE(c.probe(3_id));
    // Block 4 conflicts with block 0 only.
    auto v = c.insert(4_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 0_id);
}

TEST(Cache, ResidentBlocksEnumerates)
{
    SetAssocCache c(tiny());
    c.insert(1_id, false);
    c.insert(2_id, false);
    auto blocks = c.residentBlocks();
    EXPECT_EQ(blocks.size(), 2u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(CacheConfig{1024, 0, 128}), SimFatal);
    EXPECT_THROW(SetAssocCache(CacheConfig{1024, 2, 100}), SimFatal);
    // 3 sets (not a power of two): 3 * 2 * 128.
    EXPECT_THROW(SetAssocCache(CacheConfig{768, 2, 128}), SimFatal);
}


TEST(Cache, PeekVictimPredictsEviction)
{
    SetAssocCache c(tiny(2, 1));
    EXPECT_FALSE(c.peekVictim(1_id).has_value()) << "free way available";
    c.insert(10_id, false);
    c.insert(20_id, true);
    auto peek = c.peekVictim(30_id);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(peek->block, 10_id);
    EXPECT_FALSE(peek->dirty);
    // Peek must not change state: the actual insert agrees.
    auto v = c.insert(30_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 10_id);
}

TEST(Cache, PeekVictimOfResidentBlockIsNone)
{
    SetAssocCache c(tiny(1, 1));
    c.insert(5_id, false);
    EXPECT_FALSE(c.peekVictim(5_id).has_value());
}

TEST(Cache, PeekDirty)
{
    SetAssocCache c(tiny());
    EXPECT_FALSE(c.peekDirty(3_id).has_value());
    c.insert(3_id, false);
    ASSERT_TRUE(c.peekDirty(3_id).has_value());
    EXPECT_FALSE(*c.peekDirty(3_id));
    c.access(3_id, OpType::Write);
    EXPECT_TRUE(*c.peekDirty(3_id));
}

TEST(Cache, LowPriorityInsertIsNextVictim)
{
    SetAssocCache c(tiny(2, 1));
    c.insert(10_id, false);
    c.insert(20_id, false, /*low_priority=*/true);
    // 20 sits at LRU despite being inserted last.
    auto v = c.insert(30_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 20_id);
}

TEST(Cache, DemandHitPromotesLowPriorityLine)
{
    SetAssocCache c(tiny(2, 1));
    c.insert(10_id, false);
    c.insert(20_id, false, /*low_priority=*/true);
    c.access(20_id, OpType::Read); // promoted to MRU
    auto v = c.insert(30_id, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->block, 10_id);
}

class CacheFillParam : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheFillParam, CapacityNeverExceeded)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache c(tiny(ways, 8));
    const std::uint64_t lines = c.config().numLines();
    for (std::uint64_t b = 0; b < 10 * lines; ++b)
        c.insert(BlockId{b}, b % 3 == 0);
    EXPECT_LE(c.residentBlocks().size(), lines);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheFillParam,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Cache, KInvalidBlockIsRejected)
{
    // Tags are stored as block + 1; kInvalidBlock would wrap to the
    // invalid-way tag 0, so every entry point refuses it.
    SetAssocCache c(tiny());
    EXPECT_THROW(c.insert(kInvalidBlock, false), SimPanic);
    EXPECT_THROW(c.access(kInvalidBlock, OpType::Read), SimPanic);
    EXPECT_THROW(c.probe(kInvalidBlock), SimPanic);
}

/**
 * Reference model: the array-of-lines cache the set-major layout
 * replaced. One {block, valid, dirty, stamp} record per way, a lookup
 * scan, then a separate victim scan that takes the first invalid way,
 * else the first way with the smallest stamp; low-priority lines get
 * stamp 0.
 */
class LineCache
{
  public:
    LineCache(std::uint32_t ways, std::uint64_t sets)
        : ways_(ways), sets_(sets), lines_(ways * sets)
    {
    }

    bool access(BlockId block, OpType op)
    {
        Line *l = find(block);
        if (!l) {
            ++misses;
            return false;
        }
        ++hits;
        l->stamp = ++clock_;
        if (op == OpType::Write)
            l->dirty = true;
        return true;
    }

    bool probe(BlockId block) { return find(block) != nullptr; }

    void markDirty(BlockId block)
    {
        if (Line *l = find(block))
            l->dirty = true;
    }

    std::optional<EvictedLine> insert(BlockId block, bool dirty,
                                      bool low_priority)
    {
        if (Line *l = find(block)) {
            l->dirty = l->dirty || dirty;
            if (!low_priority)
                l->stamp = ++clock_;
            return std::nullopt;
        }
        Line *victim = victimOf(block);
        std::optional<EvictedLine> evicted;
        if (victim->valid) {
            evicted = EvictedLine{victim->block, victim->dirty};
            if (victim->dirty)
                ++dirtyEvictions;
        }
        *victim = Line{block, true, dirty,
                       low_priority ? 0 : ++clock_};
        return evicted;
    }

    std::optional<bool> invalidate(BlockId block)
    {
        Line *l = find(block);
        if (!l)
            return std::nullopt;
        const bool was_dirty = l->dirty;
        l->valid = false;
        l->dirty = false;
        l->block = kInvalidBlock;
        return was_dirty;
    }

    std::optional<EvictedLine> peekVictim(BlockId block)
    {
        if (probe(block))
            return std::nullopt;
        const Line *victim = victimOf(block);
        if (!victim->valid)
            return std::nullopt;
        return EvictedLine{victim->block, victim->dirty};
    }

    std::optional<bool> peekDirty(BlockId block)
    {
        const Line *l = find(block);
        if (!l)
            return std::nullopt;
        return l->dirty;
    }

    std::vector<BlockId> residentBlocks() const
    {
        std::vector<BlockId> out;
        for (const Line &l : lines_) {
            if (l.valid)
                out.push_back(l.block);
        }
        return out;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t dirtyEvictions = 0;

  private:
    struct Line
    {
        BlockId block = kInvalidBlock;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    Line *base(BlockId block)
    {
        return &lines_[(block.value() & (sets_ - 1)) * ways_];
    }

    Line *find(BlockId block)
    {
        Line *set = base(block);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].block == block)
                return &set[w];
        }
        return nullptr;
    }

    Line *victimOf(BlockId block)
    {
        Line *set = base(block);
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (!victim || set[w].stamp < victim->stamp)
                victim = &set[w];
        }
        return victim;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

void
expectSameLine(const std::optional<EvictedLine> &got,
               const std::optional<EvictedLine> &want, int step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (want) {
        EXPECT_EQ(got->block, want->block) << "step " << step;
        EXPECT_EQ(got->dirty, want->dirty) << "step " << step;
    }
}

class CacheDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheDifferential, MatchesTheLineArrayReference)
{
    // Seeded random access / insert (demand and low-priority) /
    // markDirty / invalidate / probe / peek sequences over a block
    // range of about three lines per way, so sets stay full and
    // every replacement path runs, including ties among several
    // low-priority lines.
    const std::uint32_t ways = GetParam();
    constexpr std::uint64_t kSets = 4;
    constexpr int kSteps = 20000;
    SetAssocCache cache(tiny(ways, kSets));
    LineCache ref(ways, kSets);
    Rng rng(1000 + ways);
    const std::uint64_t span = 3 * ways * kSets;

    for (int step = 0; step < kSteps; ++step) {
        const BlockId b{rng.below(span)};
        switch (rng.below(8)) {
          case 0:
          case 1: {
            const OpType op =
                rng.chance(0.3) ? OpType::Write : OpType::Read;
            ASSERT_EQ(cache.access(b, op), ref.access(b, op))
                << "step " << step;
            break;
          }
          case 2:
          case 3: {
            const bool dirty = rng.chance(0.3);
            const bool low = rng.chance(0.4);
            expectSameLine(cache.insert(b, dirty, low),
                           ref.insert(b, dirty, low), step);
            break;
          }
          case 4:
            cache.markDirty(b);
            ref.markDirty(b);
            break;
          case 5:
            ASSERT_EQ(cache.invalidate(b), ref.invalidate(b))
                << "step " << step;
            break;
          case 6:
            ASSERT_EQ(cache.probe(b), ref.probe(b)) << "step " << step;
            ASSERT_EQ(cache.peekDirty(b), ref.peekDirty(b))
                << "step " << step;
            break;
          default:
            expectSameLine(cache.peekVictim(b), ref.peekVictim(b), step);
            break;
        }
        if (HasFatalFailure())
            return;
        if (step % 97 == 0) {
            ASSERT_EQ(cache.residentBlocks(), ref.residentBlocks())
                << "step " << step;
        }
    }
    EXPECT_EQ(cache.residentBlocks(), ref.residentBlocks());
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.dirtyEvictions(), ref.dirtyEvictions);
    EXPECT_GT(ref.dirtyEvictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace proram
