/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * All addresses at and below this level are *block ids* (byte address
 * divided by the line size); the CPU front end does the conversion.
 * The cache stores no data payloads - the simulator's functional data
 * lives in the ORAM/DRAM backends - only tags and state bits.
 *
 * Layout: one set-major array of 64-bit words. Each set is `ways`
 * tags, then `ways` LRU stamps, then `ways` dirty words. A tag is
 * `block + 1` and a valid line's stamp is at least 1, so an all-zero
 * way is an invalid one and zero-filling the array empties the cache.
 */

#ifndef PRORAM_MEM_CACHE_HH
#define PRORAM_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/stats.hh"
#include "util/types.hh"

namespace proram
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 512 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 128;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / ways; }
};

/** A line pushed out of the cache by an insertion. */
struct EvictedLine
{
    BlockId block = kInvalidBlock;
    bool dirty = false;
};

/**
 * A single set-associative cache level. Lookup/insert/probe/invalidate
 * plus hit/miss statistics. probe() deliberately leaves LRU state
 * untouched: it models the tag-array-only check the dynamic super block
 * scheme performs to test whether a neighbour block is resident
 * (paper Sec. 4.5.2).
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    /**
     * Demand access. On a hit, updates LRU and the dirty bit (for
     * writes). @return true on hit.
     */
    bool access(BlockId block, OpType op);

    /** Tag-array check only; no LRU or state update. */
    bool probe(BlockId block) const;

    /** Mark a resident line dirty (used for L1 victim write-back). */
    void markDirty(BlockId block);

    /**
     * Insert a line, evicting the set's LRU victim if the set is full.
     * @param low_priority insert at LRU position instead of MRU -
     *        used for prefetches so that useless ones are evicted
     *        before demand-fetched lines (pollution control).
     * @return the victim, if one was evicted.
     */
    std::optional<EvictedLine> insert(BlockId block, bool dirty,
                                      bool low_priority = false);

    /**
     * Drop a line if present. @return the line's dirty state, or
     * nullopt if it was not resident.
     */
    std::optional<bool> invalidate(BlockId block);

    /**
     * Which line would inserting @p block evict? No state change.
     * @return nullopt if a free way (or the block itself) exists.
     */
    std::optional<EvictedLine> peekVictim(BlockId block) const;

    /** Dirty state of a resident line, nullopt if absent. */
    std::optional<bool> peekDirty(BlockId block) const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_.value(); }

    const CacheConfig &config() const { return cfg_; }

    /** Enumerate resident blocks (testing / drain support). */
    std::vector<BlockId> residentBlocks() const;

  private:
    /** First word of @p block's set (its tags). */
    std::uint64_t *setOf(BlockId block)
    {
        return words_.data() + (block.value() & setMask_) * setWords_;
    }
    const std::uint64_t *setOf(BlockId block) const
    {
        return words_.data() + (block.value() & setMask_) * setWords_;
    }

    /** Stored tag of @p block; 0 is left to mark an invalid way. */
    static std::uint64_t tagOf(BlockId block);

    /** Way of @p set holding @p tag, or ways_ if none does. */
    std::uint32_t findWay(const std::uint64_t *set,
                          std::uint64_t tag) const;

    /**
     * The replacement victim among @p stamps: the first way with the
     * smallest stamp, which is the first invalid way if there is one.
     */
    std::uint32_t leastWay(const std::uint64_t *stamps) const;

    /** Stamp of a line made most recently used. */
    std::uint64_t nextStamp() { return ++lruClock_ + 1; }

    CacheConfig cfg_;
    std::uint32_t ways_ = 0;
    std::uint64_t setMask_ = 0;
    /** Words per set: ways tags, ways stamps, ways dirty words. */
    std::uint64_t setWords_ = 0;
    std::vector<std::uint64_t> words_;
    std::uint64_t lruClock_ = 0;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter dirtyEvictions_;
};

} // namespace proram

#endif // PRORAM_MEM_CACHE_HH
