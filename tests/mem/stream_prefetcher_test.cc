/** @file Unit tests for the traditional stream prefetcher. */

#include "mem/stream_prefetcher.hh"

#include <gtest/gtest.h>

#include <set>

namespace proram
{
namespace
{

using namespace proram::literals;

PrefetcherConfig
cfg(std::uint32_t degree = 2, std::uint32_t distance = 4)
{
    PrefetcherConfig c;
    c.numStreams = 4;
    c.degree = degree;
    c.distance = distance;
    c.trainThreshold = 2;
    return c;
}

TEST(Prefetcher, NoPrefetchUntilTrained)
{
    StreamPrefetcher pf(cfg());
    EXPECT_TRUE(pf.observe(100_id).empty()); // allocates stream
    EXPECT_TRUE(pf.observe(101_id).empty()); // confidence 1 < 2
    EXPECT_FALSE(pf.observe(102_id).empty()); // trained now
    EXPECT_EQ(pf.streamsTrained(), 1u);
}

TEST(Prefetcher, AscendingStreamPrefetchesAhead)
{
    StreamPrefetcher pf(cfg());
    pf.observe(10_id);
    pf.observe(11_id);
    auto p = pf.observe(12_id);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 13_id);
    EXPECT_EQ(p[1], 14_id);
}

TEST(Prefetcher, DescendingStreamSupported)
{
    StreamPrefetcher pf(cfg());
    pf.observe(50_id);
    pf.observe(49_id);
    auto p = pf.observe(48_id);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 47_id);
    EXPECT_EQ(p[1], 46_id);
}

TEST(Prefetcher, FrontierRespectsDistance)
{
    StreamPrefetcher pf(cfg(8, 3));
    pf.observe(10_id);
    pf.observe(11_id);
    auto p = pf.observe(12_id);
    // Degree 8 but distance 3: at most 3 ahead of block 12.
    EXPECT_LE(p.size(), 3u);
    for (auto b : p)
        EXPECT_LE(b.value(), 15u);
}

TEST(Prefetcher, NoDuplicatePrefetches)
{
    StreamPrefetcher pf(cfg(2, 8));
    std::set<BlockId> all;
    for (std::uint64_t b = 20; b < 30; ++b) {
        for (BlockId p : pf.observe(BlockId{b})) {
            EXPECT_TRUE(all.insert(p).second)
                << "block " << p << " prefetched twice";
        }
    }
}

TEST(Prefetcher, RandomAccessesNeverTrain)
{
    StreamPrefetcher pf(cfg());
    std::uint64_t total = 0;
    for (BlockId b : {7_id, 93_id, 12_id, 401_id, 55_id,
                      230_id, 77_id, 910_id})
        total += pf.observe(b).size();
    EXPECT_EQ(total, 0u);
    EXPECT_EQ(pf.streamsTrained(), 0u);
}

TEST(Prefetcher, TracksMultipleStreams)
{
    StreamPrefetcher pf(cfg());
    // Interleave two ascending streams.
    pf.observe(100_id);
    pf.observe(500_id);
    pf.observe(101_id);
    pf.observe(501_id);
    // observe() returns a view that the next call overwrites.
    EXPECT_FALSE(pf.observe(102_id).empty());
    EXPECT_FALSE(pf.observe(502_id).empty());
    EXPECT_EQ(pf.streamsTrained(), 2u);
}

TEST(Prefetcher, IssuedCounterMatches)
{
    StreamPrefetcher pf(cfg());
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < 10; ++b)
        n += pf.observe(BlockId{b}).size();
    EXPECT_EQ(pf.issued(), n);
}

} // namespace
} // namespace proram
