/** @file Unit tests for the slot-arena storage backends. */

#include "mem/arena.hh"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/logging.hh"

namespace proram
{
namespace
{

ArenaOptions
opts(ArenaKind kind, std::uint32_t chunk_buckets)
{
    ArenaOptions o;
    o.kind = kind;
    o.chunkBuckets = chunk_buckets;
    return o;
}

TEST(ArenaOptions, ResolvedAppliesDefaults)
{
    // The environment must not leak into this check.
    ASSERT_EQ(std::getenv("PRORAM_ARENA"), nullptr);
    ASSERT_EQ(std::getenv("PRORAM_ARENA_CHUNK"), nullptr);
    const ArenaOptions r = ArenaOptions{}.resolved();
    EXPECT_EQ(r.kind, ArenaKind::Dense);
    EXPECT_EQ(r.chunkBuckets, ArenaBackend::kDefaultChunkBuckets);
}

TEST(ArenaOptions, EnvSelectsBackendAndChunk)
{
    ::setenv("PRORAM_ARENA", "sparse", 1);
    ::setenv("PRORAM_ARENA_CHUNK", "64", 1);
    const ArenaOptions r = ArenaOptions{}.resolved();
    ::unsetenv("PRORAM_ARENA");
    ::unsetenv("PRORAM_ARENA_CHUNK");
    EXPECT_EQ(r.kind, ArenaKind::Sparse);
    EXPECT_EQ(r.chunkBuckets, 64u);
    // An explicit config wins over the environment.
    ::setenv("PRORAM_ARENA", "dense", 1);
    const ArenaOptions e = opts(ArenaKind::Sparse, 16).resolved();
    ::unsetenv("PRORAM_ARENA");
    EXPECT_EQ(e.kind, ArenaKind::Sparse);
    EXPECT_EQ(e.chunkBuckets, 16u);
}

TEST(ArenaOptions, BadEnvValuesAreFatal)
{
    for (const char *bad : {"turbo", "mmap", ""}) {
        ::setenv("PRORAM_ARENA", bad, 1);
        EXPECT_THROW(ArenaOptions{}.resolved(), SimFatal) << bad;
    }
    ::unsetenv("PRORAM_ARENA");
    ::setenv("PRORAM_ARENA_CHUNK", "zero", 1);
    EXPECT_THROW(ArenaOptions{}.resolved(), SimFatal);
    ::setenv("PRORAM_ARENA_CHUNK", "24", 1); // not a power of two
    EXPECT_THROW(ArenaOptions{}.resolved(), SimFatal);
    ::unsetenv("PRORAM_ARENA_CHUNK");
}

TEST(Arena, GeometryRoundsUpToWholeChunks)
{
    // 100 buckets over 16-bucket chunks = 7 chunks.
    auto a = ArenaBackend::make(opts(ArenaKind::Sparse, 16), 100, 3);
    EXPECT_EQ(a->numChunks(), 7u);
    EXPECT_EQ(a->chunkBuckets(), 16u);
    EXPECT_EQ(a->chunkShift(), 4u);
    // Lane bytes per chunk: 16*3 headers + 16*3 payloads + 16 counts.
    EXPECT_EQ(a->chunkBytes(), 16u * 3 * 8 + 16u * 3 * 8 + 16u * 4);
    EXPECT_EQ(a->bytesTotal(), 7 * a->chunkBytes());
    EXPECT_EQ(a->bytesResident(), 0u);
}

TEST(Arena, DenseIsFullyResidentUpFront)
{
    auto a = ArenaBackend::make(opts(ArenaKind::Dense, 16), 100, 3);
    EXPECT_STREQ(a->name(), "dense");
    EXPECT_EQ(a->chunksMaterialized(), a->numChunks());
    EXPECT_EQ(a->bytesResident(), a->bytesTotal());
    // Every chunk is readable and all-dummy.
    for (std::uint64_t c = 0; c < a->numChunks(); ++c) {
        const ArenaBackend::View v = a->view(c);
        ASSERT_NE(v.headers, nullptr);
        EXPECT_TRUE(v.headers[0].isDummy());
        EXPECT_EQ(v.free[0], 3u);
    }
}

TEST(Arena, MaterializeIsIdempotentAndAllDummy)
{
    auto a = ArenaBackend::make(opts(ArenaKind::Sparse, 8), 64, 2);
    EXPECT_EQ(a->view(3).headers, nullptr);
    const ArenaBackend::Lanes l = a->materialize(3);
    ASSERT_NE(l.headers, nullptr);
    for (std::uint64_t s = 0; s < 8 * 2; ++s) {
        EXPECT_EQ(l.headers[s].blockId(), kInvalidBlock);
        EXPECT_EQ(l.headers[s].leafLabel(), kInvalidLeaf);
    }
    for (std::uint64_t b = 0; b < 8; ++b)
        EXPECT_EQ(l.free[b], 2u);
    const ArenaBackend::Lanes again = a->materialize(3);
    EXPECT_EQ(again.headers, l.headers);
    EXPECT_EQ(a->chunksMaterialized(), 1u);
    EXPECT_TRUE(a->materialized(3));
    EXPECT_FALSE(a->materialized(2));
}

} // namespace
} // namespace proram
