#include "mem/cache.hh"

#include "util/annotations.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

namespace
{

/** Stamp of a low-priority (prefetch) line: below every demand line. */
constexpr std::uint64_t kLowPriorityStamp = 1;

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &cfg)
    : cfg_(cfg), ways_(cfg.ways)
{
    fatal_if(cfg.lineBytes == 0 || !isPowerOf2(cfg.lineBytes),
             "cache line size must be a power of two");
    fatal_if(cfg.ways == 0, "cache must have at least one way");
    fatal_if(cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                              cfg.lineBytes) != 0,
             "cache size must be a multiple of ways * lineBytes");
    const std::uint64_t num_sets = cfg.numSets();
    fatal_if(num_sets == 0, "cache has zero sets");
    fatal_if(!isPowerOf2(num_sets), "number of sets must be a power of 2");
    setMask_ = num_sets - 1;
    setWords_ = 3 * static_cast<std::uint64_t>(ways_);
    // One allocation, filled once: every way starts invalid.
    words_.assign(num_sets * setWords_, 0);
}

std::uint64_t
SetAssocCache::tagOf(BlockId block)
{
    // kInvalidBlock + 1 would wrap to 0 and match an invalid way.
    panic_if(block == kInvalidBlock, "cache lookup of kInvalidBlock");
    return block.value() + 1;
}

std::uint32_t
SetAssocCache::findWay(const std::uint64_t *set, std::uint64_t tag) const
{
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w)
        way = set[w] == tag ? w : way;
    return way;
}

std::uint32_t
SetAssocCache::leastWay(const std::uint64_t *stamps) const
{
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w)
        victim = stamps[w] < stamps[victim] ? w : victim;
    return victim;
}

PRORAM_HOT bool
SetAssocCache::access(BlockId block, OpType op)
{
    std::uint64_t *set = setOf(block);
    const std::uint32_t way = findWay(set, tagOf(block));
    if (way == ways_) {
        ++misses_;
        return false;
    }
    ++hits_;
    set[ways_ + way] = nextStamp();
    set[2 * ways_ + way] |= op == OpType::Write;
    return true;
}

bool
SetAssocCache::probe(BlockId block) const
{
    return findWay(setOf(block), tagOf(block)) != ways_;
}

void
SetAssocCache::markDirty(BlockId block)
{
    std::uint64_t *set = setOf(block);
    const std::uint32_t way = findWay(set, tagOf(block));
    if (way != ways_)
        set[2 * ways_ + way] = 1;
}

PRORAM_HOT std::optional<EvictedLine>
SetAssocCache::insert(BlockId block, bool dirty, bool low_priority)
{
    const std::uint64_t tag = tagOf(block);
    std::uint64_t *tags = setOf(block);
    std::uint64_t *stamps = tags + ways_;
    std::uint64_t *dirties = stamps + ways_;

    // One pass finds both the way already holding the block and the
    // victim: the first way with the smallest stamp, i.e. the first
    // invalid way (stamp 0) if any, else the least recently used.
    std::uint32_t hit = ways_;
    std::uint32_t victim = 0;
    std::uint64_t least = stamps[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        hit = tags[w] == tag ? w : hit;
        const bool lower = stamps[w] < least;
        least = lower ? stamps[w] : least;
        victim = lower ? w : victim;
    }

    if (hit != ways_) {
        // Re-insertion of a resident line just refreshes state.
        dirties[hit] |= dirty;
        if (!low_priority)
            stamps[hit] = nextStamp();
        return std::nullopt;
    }

    std::optional<EvictedLine> evicted;
    if (tags[victim] != 0) {
        evicted = EvictedLine{BlockId{tags[victim] - 1},
                              dirties[victim] != 0};
        dirtyEvictions_ += dirties[victim];
    }

    tags[victim] = tag;
    dirties[victim] = dirty;
    // Low-priority (prefetch) insertions take the LRU position: they
    // are the set's next victim unless a demand hit promotes them.
    stamps[victim] = low_priority ? kLowPriorityStamp : nextStamp();
    return evicted;
}

std::optional<EvictedLine>
SetAssocCache::peekVictim(BlockId block) const
{
    if (probe(block))
        return std::nullopt;
    const std::uint64_t *tags = setOf(block);
    const std::uint64_t *stamps = tags + ways_;
    const std::uint32_t victim = leastWay(stamps);
    if (stamps[victim] == 0)
        return std::nullopt;
    return EvictedLine{BlockId{tags[victim] - 1},
                       stamps[ways_ + victim] != 0};
}

std::optional<bool>
SetAssocCache::peekDirty(BlockId block) const
{
    const std::uint64_t *set = setOf(block);
    const std::uint32_t way = findWay(set, tagOf(block));
    if (way == ways_)
        return std::nullopt;
    return set[2 * ways_ + way] != 0;
}

std::optional<bool>
SetAssocCache::invalidate(BlockId block)
{
    std::uint64_t *set = setOf(block);
    const std::uint32_t way = findWay(set, tagOf(block));
    if (way == ways_)
        return std::nullopt;
    const bool was_dirty = set[2 * ways_ + way] != 0;
    set[way] = 0;
    set[ways_ + way] = 0;
    set[2 * ways_ + way] = 0;
    return was_dirty;
}

std::vector<BlockId>
SetAssocCache::residentBlocks() const
{
    std::vector<BlockId> out;
    for (std::uint64_t base = 0; base < words_.size(); base += setWords_) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (words_[base + w] != 0)
                out.push_back(BlockId{words_[base + w] - 1});
        }
    }
    return out;
}

} // namespace proram
