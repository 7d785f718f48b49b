#include "mem/stream_prefetcher.hh"

#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig &cfg)
    : cfg_(cfg), streams_(cfg.numStreams), candidates_(cfg.degree)
{
    fatal_if(cfg.numStreams == 0, "prefetcher needs at least one stream");
    fatal_if(cfg.degree == 0, "prefetch degree must be at least 1");
}

StreamPrefetcher::Stream *
StreamPrefetcher::findStream(BlockId block, int *direction_out)
{
    for (Stream &s : streams_) {
        if (!s.valid)
            continue;
        if (block == s.lastBlock + 1) {
            *direction_out = +1;
            return &s;
        }
        if (s.lastBlock != BlockId{0} && block == s.lastBlock - 1) {
            *direction_out = -1;
            return &s;
        }
    }
    return nullptr;
}

StreamPrefetcher::Stream &
StreamPrefetcher::allocateStream(BlockId block)
{
    Stream *victim = nullptr;
    for (Stream &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (!victim || s.lruStamp < victim->lruStamp)
            victim = &s;
    }
    *victim = Stream{};
    victim->valid = true;
    victim->lastBlock = block;
    victim->frontier = block;
    victim->lruStamp = ++lruClock_;
    return *victim;
}

PRORAM_HOT std::span<const BlockId>
StreamPrefetcher::observe(BlockId block)
{
    int direction = 0;
    Stream *s = findStream(block, &direction);
    if (!s) {
        allocateStream(block);
        return {};
    }

    s->lruStamp = ++lruClock_;
    if (s->direction == direction) {
        ++s->confidence;
    } else {
        s->direction = direction;
        s->confidence = 1;
        s->trained = false;
        s->frontier = block;
    }
    s->lastBlock = block;

    if (!s->trained && s->confidence >= cfg_.trainThreshold) {
        s->trained = true;
        s->frontier = block;
        ++trained_;
    }
    if (!s->trained)
        return {};

    // Run the frontier up to `distance` blocks ahead of the demand
    // stream, issuing at most `degree` prefetches per trigger.
    const std::int64_t dir = s->direction;
    std::size_t n = 0;
    for (; n < cfg_.degree; ++n) {
        const std::int64_t ahead =
            dir * (static_cast<std::int64_t>(s->frontier.value()) -
                   static_cast<std::int64_t>(block.value()));
        if (ahead >= static_cast<std::int64_t>(cfg_.distance))
            break;
        const std::int64_t next =
            static_cast<std::int64_t>(s->frontier.value()) + dir;
        if (next < 0)
            break;
        s->frontier = BlockId{static_cast<std::uint64_t>(next)};
        candidates_[n] = s->frontier;
        ++issued_;
    }
    return {candidates_.data(), n};
}

} // namespace proram
