/** @file Unit tests for the DRAM memory backend (+ prefetch buffer). */

#include "mem/dram_backend.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>

#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

DramBackendConfig
cfg(bool prefetch)
{
    DramBackendConfig c;
    c.dram.latency = Cycles{100};
    c.dram.bytesPerCycle = 16.0;
    c.dram.lineBytes = 128;
    c.prefetch = prefetch;
    c.prefetcher.degree = 2;
    c.prefetcher.distance = 4;
    c.prefetcher.trainThreshold = 2;
    c.bufferLines = 8;
    return c;
}

TEST(DramBackend, DemandLatencyWithoutPrefetch)
{
    DramBackend be(cfg(false));
    EXPECT_EQ(be.demandAccess(Cycles{0}, 7_id, OpType::Read), Cycles{108});
}

TEST(DramBackend, WritebackOccupiesBus)
{
    DramBackend be(cfg(false));
    be.writebackAccess(Cycles{0}, 1_id);
    // The next demand waits for the write transfer on the bus.
    EXPECT_EQ(be.demandAccess(Cycles{0}, 2_id, OpType::Read), Cycles{116});
}

TEST(DramBackend, SequentialStreamHitsPrefetchBuffer)
{
    DramBackend be(cfg(true));
    Cycles t{0};
    // Train the stream and run well past the training window.
    for (std::uint64_t i = 0; i < 8; ++i)
        t = be.demandAccess(t + Cycles{50}, BlockId{i}, OpType::Read);
    EXPECT_GT(be.prefetchBufferHits(), 0u);
}

TEST(DramBackend, PrefetchHitIsFasterThanMiss)
{
    DramBackend warm(cfg(true));
    DramBackend cold(cfg(false));
    Cycles tw{0}, tc{0};
    for (std::uint64_t i = 0; i < 16; ++i) {
        const BlockId b{i};
        // Large compute gaps leave spare bandwidth for prefetches.
        tw = warm.demandAccess(tw + Cycles{300}, b, OpType::Read);
        tc = cold.demandAccess(tc + Cycles{300}, b, OpType::Read);
    }
    EXPECT_LT(tw, tc) << "prefetching on DRAM must help sequential "
                         "streams with spare bandwidth (Fig. 5)";
}

TEST(DramBackend, RandomStreamUnaffectedByPrefetcher)
{
    DramBackend warm(cfg(true));
    DramBackend cold(cfg(false));
    const BlockId seq[] = {901_id, 17_id, 445_id, 2_id,
                           333_id, 90_id, 761_id, 54_id};
    Cycles tw{0}, tc{0};
    for (BlockId b : seq) {
        tw = warm.demandAccess(tw + Cycles{300}, b, OpType::Read);
        tc = cold.demandAccess(tc + Cycles{300}, b, OpType::Read);
    }
    EXPECT_EQ(tw, tc);
    EXPECT_EQ(warm.prefetchBufferHits(), 0u);
}

TEST(DramBackend, MemAccessCountCountsTransfers)
{
    DramBackend be(cfg(false));
    be.demandAccess(Cycles{0}, 1_id, OpType::Read);
    be.demandAccess(Cycles{200}, 2_id, OpType::Read);
    be.writebackAccess(Cycles{400}, 3_id);
    EXPECT_EQ(be.memAccessCount(), 3u);
}

TEST(DramBackend, BufferCapacityBounded)
{
    DramBackendConfig c = cfg(true);
    c.bufferLines = 2;
    c.prefetcher.degree = 4;
    c.prefetcher.distance = 16;
    DramBackend be(c);
    Cycles t{0};
    for (std::uint64_t i = 0; i < 64; ++i)
        t = be.demandAccess(t + Cycles{10}, BlockId{i}, OpType::Read);
    // No assertion beyond "does not blow up": capacity handling is
    // internal; hits still occur.
    SUCCEED();
}

/**
 * Reference model: the prefetch buffer as a hash map from block to
 * ready cycle plus a FIFO of insertion order, the layout the flat
 * buffer replaced. A demand hit erases the map entry and leaves its
 * FIFO entry behind; FIFO entries are popped only while the map is
 * full, and each pop erases whatever copy of its block is mapped.
 */
class MapBufferDram
{
  public:
    explicit MapBufferDram(const DramBackendConfig &c)
        : cfg_(c), dram_(c.dram), pf_(c.prefetcher)
    {
    }

    Cycles demandAccess(Cycles now, BlockId block)
    {
        Cycles completion;
        auto it = buffer_.find(block);
        if (it != buffer_.end()) {
            completion = std::max(now, it->second);
            buffer_.erase(it);
            ++hits;
        } else {
            completion = dram_.schedule(now);
        }
        for (BlockId cand : pf_.observe(block)) {
            if (buffer_.count(cand))
                continue;
            const Cycles ready = dram_.schedule(now);
            while (buffer_.size() >= cfg_.bufferLines && !fifo_.empty()) {
                buffer_.erase(fifo_.front());
                fifo_.pop_front();
            }
            buffer_[cand] = ready;
            fifo_.push_back(cand);
        }
        return completion;
    }

    void writebackAccess(Cycles now) { dram_.schedule(now); }

    std::uint64_t transfers() const { return dram_.numTransfers(); }
    std::size_t fifoLength() const { return fifo_.size(); }

    std::uint64_t hits = 0;

  private:
    DramBackendConfig cfg_;
    DramModel dram_;
    StreamPrefetcher pf_;
    std::unordered_map<BlockId, Cycles> buffer_;
    std::deque<BlockId> fifo_;
};

struct BufferCase
{
    std::uint32_t bufferLines;
    std::uint32_t degree;
    std::uint32_t distance;
    std::uint32_t numStreams;
};

class PrefetchBufferDifferential
    : public ::testing::TestWithParam<BufferCase>
{
};

TEST_P(PrefetchBufferDifferential, MatchesTheMapAndFifoReference)
{
    // Seeded demand streams: runs of ascending or descending blocks
    // (which train the prefetcher and hit the buffer), revisits of
    // recent blocks (which re-prefetch lines a demand hit consumed,
    // leaving stale FIFO entries), random jumps and write-backs.
    const BufferCase bc = GetParam();
    DramBackendConfig c = cfg(true);
    c.bufferLines = bc.bufferLines;
    c.prefetcher.degree = bc.degree;
    c.prefetcher.distance = bc.distance;
    c.prefetcher.numStreams = bc.numStreams;
    DramBackend be(c);
    MapBufferDram ref(c);
    Rng rng(bc.bufferLines * 1000 + bc.degree * 100 + bc.distance);

    Cycles t{0};
    std::uint64_t cursor = 500;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t kind = rng.below(16);
        if (kind < 9) {
            cursor += 1; // ascending run
        } else if (kind < 12) {
            cursor -= 1; // descending run
        } else if (kind < 14) {
            cursor -= rng.below(8); // revisit
        } else if (kind < 15) {
            cursor = 64 + rng.below(1024); // jump
        } else {
            be.writebackAccess(t, BlockId{cursor});
            ref.writebackAccess(t);
            continue;
        }
        t += Cycles{rng.below(400)};
        const Cycles got = be.demandAccess(t, BlockId{cursor}, OpType::Read);
        const Cycles want = ref.demandAccess(t, BlockId{cursor});
        ASSERT_EQ(got, want) << "step " << step;
        t = got;
    }
    EXPECT_EQ(be.prefetchBufferHits(), ref.hits);
    EXPECT_EQ(be.memAccessCount(), ref.transfers());
    EXPECT_EQ(be.prefetchFifoLength(), ref.fifoLength());
    EXPECT_GT(ref.hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PrefetchBufferDifferential,
    ::testing::Values(BufferCase{1, 1, 1, 1}, BufferCase{2, 1, 1, 1},
                      BufferCase{2, 2, 4, 2}, BufferCase{4, 4, 16, 8},
                      BufferCase{8, 2, 4, 8}, BufferCase{32, 2, 4, 8},
                      BufferCase{32, 8, 32, 4}),
    [](const ::testing::TestParamInfo<BufferCase> &info) {
        const BufferCase &c = info.param;
        return "lines" + std::to_string(c.bufferLines) + "_degree" +
               std::to_string(c.degree) + "_distance" +
               std::to_string(c.distance) + "_streams" +
               std::to_string(c.numStreams);
    });

DramBackendConfig
quirkCfg()
{
    // One stream, trained on its first unit stride, one prefetch one
    // block ahead, a two-line buffer.
    DramBackendConfig c = cfg(true);
    c.bufferLines = 2;
    c.prefetcher.numStreams = 1;
    c.prefetcher.degree = 1;
    c.prefetcher.distance = 1;
    c.prefetcher.trainThreshold = 1;
    return c;
}

TEST(DramBackend, StaleFifoEntryEvictsAReprefetchedCopy)
{
    // Pins the buffer's replacement, which a plain FIFO over live
    // lines would not reproduce (fixing it would move dram_pre results):
    // a demand hit leaves the block's FIFO entry behind, and when that
    // stale entry reaches the front of a full buffer it erases a
    // later, re-prefetched copy of the same block instead of the
    // oldest live line.
    DramBackend be(quirkCfg());
    Cycles t{0};
    const auto demand = [&](std::uint64_t b) {
        t = be.demandAccess(t + Cycles{1000}, BlockId{b}, OpType::Read);
    };
    demand(10);
    demand(11); // trains; prefetches 12
    demand(12); // buffer hit: 12's FIFO entry goes stale; prefetches 13
    ASSERT_EQ(be.prefetchBufferHits(), 1u);
    demand(10);
    demand(11); // a new stream re-prefetches 12: FIFO [12 stale, 13, 12]
    demand(20);
    demand(21); // prefetching 22 into the full buffer pops the stale 12
    EXPECT_EQ(be.prefetchFifoLength(), 3u); // [13, 12, 22]

    const Cycles before = t + Cycles{1000};
    demand(12);
    EXPECT_EQ(be.prefetchBufferHits(), 1u)
        << "the re-prefetched 12 was erased by its stale FIFO entry";
    EXPECT_EQ(t, before + Cycles{108}) << "12 is a full DRAM access";
    demand(13);
    EXPECT_EQ(be.prefetchBufferHits(), 2u)
        << "13, the oldest live line, survived";
}

TEST(DramBackend, FifoGrowsWhileTheBufferNeverFills)
{
    // Pins the other half of the lazy cleanup: FIFO entries leave
    // only while the buffer is full, so a stream whose every prefetch
    // is consumed keeps the buffer near empty and the FIFO grows by
    // one stale entry per prefetch.
    DramBackend be(cfg(true));
    Cycles t{0};
    for (std::uint64_t b = 0; b < 1000; ++b)
        t = be.demandAccess(t + Cycles{300}, BlockId{b}, OpType::Read);
    EXPECT_GT(be.prefetchBufferHits(), 990u);
    EXPECT_EQ(be.prefetchFifoLength(), be.prefetcher()->issued());
    EXPECT_GT(be.prefetchFifoLength(), 990u);
}

} // namespace
} // namespace proram
