/**
 * @file
 * Open-addressing hash index from BlockId-sized keys to 32-bit slot
 * numbers: one contiguous cell array, linear probing, backward-shift
 * deletion (no tombstones). It is the lookup side of the PLB's
 * array-backed LRU (oram/position_map.hh), its only user: the *values*
 * live in a flat array owned by the caller; the index only maps
 * key -> slot, so a probe touches one small cell run instead of
 * chasing list nodes. (The stash needs no index: a residency bitset
 * plus a short lane scan serve its few lookups by id - oram/stash.hh.)
 */

#ifndef PRORAM_UTIL_FLAT_INDEX_HH
#define PRORAM_UTIL_FLAT_INDEX_HH

#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

/**
 * Key -> uint32 map with open addressing. Keys are arbitrary 64-bit
 * values except the all-ones sentinel (kInvalidBlock), which marks
 * empty cells. Deterministic: layout depends only on the sequence of
 * put/erase calls, never on allocation addresses.
 */
class FlatIndex
{
  public:
    /** Returned by get() when the key is absent. */
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /** @param expected_entries sizing hint (may grow beyond it). */
    explicit FlatIndex(std::size_t expected_entries = 0)
    {
        rehash(cellCountFor(expected_entries));
    }

    std::size_t size() const { return size_; }

    /** Slot stored for @p key, or kNone. */
    std::uint32_t get(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (cells_[i].key != kEmptyKey) {
            if (cells_[i].key == key)
                return cells_[i].value;
            i = (i + 1) & mask_;
        }
        return kNone;
    }

    /** Insert @p key -> @p value, overwriting any previous mapping. */
    void put(std::uint64_t key, std::uint32_t value)
    {
        panic_if(key == kEmptyKey, "FlatIndex key is the empty sentinel");
        if ((size_ + 1) * 10 > (mask_ + 1) * 7)
            rehash((mask_ + 1) * 2);
        std::size_t i = home(key);
        while (cells_[i].key != kEmptyKey) {
            if (cells_[i].key == key) {
                cells_[i].value = value;
                return;
            }
            i = (i + 1) & mask_;
        }
        cells_[i] = {key, value};
        ++size_;
    }

    /** Remove @p key. @return true if it was present. */
    bool erase(std::uint64_t key)
    {
        std::size_t i = home(key);
        while (cells_[i].key != key) {
            if (cells_[i].key == kEmptyKey)
                return false;
            i = (i + 1) & mask_;
        }
        // Backward-shift: pull every displaced cell of the probe run
        // over the hole so lookups never need tombstones.
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (cells_[j].key == kEmptyKey)
                break;
            const std::size_t h = home(cells_[j].key);
            // Cell j still reaches its home without crossing the hole
            // iff h lies cyclically in (hole, j]; otherwise move it.
            const bool reachable = (j >= hole)
                                       ? (h > hole && h <= j)
                                       : (h > hole || h <= j);
            if (reachable)
                continue;
            cells_[hole] = cells_[j];
            hole = j;
        }
        cells_[hole].key = kEmptyKey;
        --size_;
        return true;
    }

    /** Drop every entry, keeping the current cell array. */
    void clear()
    {
        for (Cell &c : cells_)
            c.key = kEmptyKey;
        size_ = 0;
    }

  private:
    static constexpr std::uint64_t kEmptyKey = ~0ULL;

    struct Cell
    {
        std::uint64_t key = kEmptyKey;
        std::uint32_t value = 0;
    };

    static std::size_t cellCountFor(std::size_t entries)
    {
        // Keep load factor <= 0.7 at the expected size; minimum 16.
        std::size_t cells = 16;
        while (entries * 10 > cells * 7)
            cells *= 2;
        return cells;
    }

    std::size_t home(std::uint64_t key) const
    {
        // Fibonacci multiplicative hash: spreads the dense BlockId
        // keyspace across cells without libstdc++'s modulo-by-prime.
        return (key * 0x9E3779B97F4A7C15ULL >> 32) & mask_;
    }

    void rehash(std::size_t cells)
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(cells, Cell{});
        mask_ = cells - 1;
        size_ = 0;
        for (const Cell &c : old) {
            if (c.key != kEmptyKey)
                put(c.key, c.value);
        }
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace proram

#endif // PRORAM_UTIL_FLAT_INDEX_HH
