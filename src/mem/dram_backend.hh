/**
 * @file
 * The insecure DRAM memory backend (the paper's "dram" baseline),
 * optionally fronted by the traditional stream prefetcher + prefetch
 * buffer ("dram_pre" in Fig. 5). Bank-level parallelism lets demand
 * latency overlap with prefetch transfers; only the bus serializes.
 */

#ifndef PRORAM_MEM_DRAM_BACKEND_HH
#define PRORAM_MEM_DRAM_BACKEND_HH

#include <deque>
#include <memory>
#include <vector>

#include "mem/backend.hh"
#include "mem/dram.hh"
#include "mem/stream_prefetcher.hh"

namespace proram
{

/** DRAM backend configuration. */
struct DramBackendConfig
{
    DramConfig dram{};
    bool prefetch = false;
    PrefetcherConfig prefetcher{};
    /** Prefetch buffer (stream buffer) capacity in lines. */
    std::uint32_t bufferLines = 32;
};

/** The backend. */
class DramBackend : public MemBackend
{
  public:
    explicit DramBackend(const DramBackendConfig &cfg);

    Cycles demandAccess(Cycles now, BlockId block, OpType op) override;
    void writebackAccess(Cycles now, BlockId block) override;
    void onDemandTouch(Cycles now, BlockId block) override;
    std::uint64_t memAccessCount() const override;

    std::uint64_t prefetchBufferHits() const { return bufferHits_; }
    const StreamPrefetcher *prefetcher() const { return pf_.get(); }

    /** Entries of the buffer's FIFO, stale ones included (tests). */
    std::size_t prefetchFifoLength() const { return bufferFifo_.size(); }

  private:
    /** A prefetched line and the cycle its data is ready. */
    struct BufferEntry
    {
        BlockId block = kInvalidBlock;
        Cycles ready{0};
    };

    void issuePrefetches(Cycles now, BlockId trigger);
    /** Index of @p block in the buffer, or bufferSize_ if absent. */
    std::size_t findBuffered(BlockId block) const;
    /** Drop entry @p i; the last entry takes its place. */
    void removeBuffered(std::size_t i);

    DramBackendConfig cfg_;
    DramModel dram_;
    std::unique_ptr<StreamPrefetcher> pf_;

    /**
     * The prefetch buffer: bufferSize_ live entries in any order, at
     * most max(bufferLines, 1), each block at most once.
     */
    std::vector<BufferEntry> buffer_;
    std::size_t bufferSize_ = 0;
    /**
     * Insertion order for replacement. A demand hit leaves its entry
     * here (stale); an entry erases whatever copy of its block is
     * buffered when it reaches the front of a full buffer.
     */
    std::deque<BlockId> bufferFifo_;
    std::uint64_t bufferHits_ = 0;
};

} // namespace proram

#endif // PRORAM_MEM_DRAM_BACKEND_HH
