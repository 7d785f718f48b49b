#include "mem/dram_backend.hh"

#include <algorithm>

#include "util/annotations.hh"

namespace proram
{

DramBackend::DramBackend(const DramBackendConfig &cfg)
    : cfg_(cfg), dram_(cfg.dram)
{
    if (cfg.prefetch) {
        pf_ = std::make_unique<StreamPrefetcher>(cfg.prefetcher);
        // Every buffered line still has its own FIFO entry, so an
        // insertion finds the buffer below bufferLines or empty: it
        // never holds more than max(bufferLines, 1) lines.
        buffer_.resize(std::max<std::size_t>(cfg.bufferLines, 1));
    }
}

std::size_t
DramBackend::findBuffered(BlockId block) const
{
    std::size_t i = 0;
    while (i < bufferSize_ && buffer_[i].block != block)
        ++i;
    return i;
}

void
DramBackend::removeBuffered(std::size_t i)
{
    buffer_[i] = buffer_[--bufferSize_];
}

PRORAM_HOT void
DramBackend::issuePrefetches(Cycles now, BlockId trigger)
{
    if (!pf_)
        return;
    for (BlockId cand : pf_->observe(trigger)) {
        if (findBuffered(cand) != bufferSize_)
            continue;
        const Cycles ready = dram_.schedule(now);
        // FIFO entries may be stale (consumed by a demand hit); keep
        // popping until the buffer actually shrinks below capacity.
        while (bufferSize_ >= cfg_.bufferLines && !bufferFifo_.empty()) {
            const std::size_t i = findBuffered(bufferFifo_.front());
            if (i != bufferSize_)
                removeBuffered(i);
            bufferFifo_.pop_front();
        }
        buffer_[bufferSize_++] = BufferEntry{cand, ready};
        // PRORAM_LINT_ALLOW(hot-alloc): stale entries leave the FIFO
        // only through a full buffer, so it has no fixed bound.
        bufferFifo_.push_back(cand);
    }
}

PRORAM_HOT Cycles
DramBackend::demandAccess(Cycles now, BlockId block, OpType op)
{
    (void)op;
    Cycles completion;
    const std::size_t i = findBuffered(block);
    if (i != bufferSize_) {
        completion = std::max(now, buffer_[i].ready);
        removeBuffered(i);
        // Lazy FIFO cleanup: the id is dropped when it reaches the
        // front; correctness only needs buffer membership.
        ++bufferHits_;
    } else {
        completion = dram_.schedule(now);
    }
    issuePrefetches(now, block);
    return completion;
}

void
DramBackend::writebackAccess(Cycles now, BlockId block)
{
    (void)block;
    dram_.schedule(now);
}

void
DramBackend::onDemandTouch(Cycles now, BlockId block)
{
    (void)now;
    (void)block;
}

std::uint64_t
DramBackend::memAccessCount() const
{
    return dram_.numTransfers();
}

} // namespace proram
