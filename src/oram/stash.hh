/**
 * @file
 * The on-chip stash: blocks read from the tree that have not yet been
 * evicted back. Path ORAM's invariant is that a block mapped to leaf s
 * is either on path s or in the stash.
 *
 * Storage is one dense insertion-ordered store in structure-of-arrays
 * form: three parallel lanes (block ids, cached leaves, payload words)
 * share slot numbering. There is no id -> slot index. Residency is a
 * bitset over the whole BlockId space, sized at construction, so
 * contains() and the duplicate-insert check are O(1) and the hot path
 * never allocates; the few per-access lookups by id (findData,
 * leafOf, updateLeaf) test the bitset first and only then scan the id
 * lane, which holds a few dozen live slots. Blocks are moved out by
 * slot: eviction already holds each block's slot from its lane scan,
 * releases it in place (the slot turns dead, survivors do not move)
 * and compacts once at the end of the pass, from the first dead slot
 * on, so iteration order stays
 * insertion order by construction - the determinism the replay tests
 * rely on. Eviction classifies each slot straight from the
 * contiguous leaf lane (BinaryTree::commonLevel, one bit_width per
 * block) with no per-entry struct stride. Cached leaves mirror the
 * position map (kept coherent by PositionMap's setLeaf hook) and are
 * what eviction writes into the tree's slot headers, so neither half
 * of an access does a position-map lookup per block.
 */

#ifndef PRORAM_ORAM_STASH_HH
#define PRORAM_ORAM_STASH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/stats.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace proram
{

/** Snapshot view of one resident stash block (assembled from the SoA
 *  lanes; not the storage format). */
struct StashEntry
{
    BlockId id = kInvalidBlock;
    Leaf leaf = kInvalidLeaf;
    std::uint64_t data = 0;
};

/**
 * Dense block store with occupancy statistics. The capacity is a
 * soft threshold consulted by the controller to trigger background
 * eviction - the stash itself never refuses an insertion (hardware
 * would deadlock; the controller's job is to keep it small).
 *
 * Pointers returned by findData() and the lane pointers are
 * invalidated by insert() and compact().
 */
class Stash
{
  public:
    /**
     * @param capacity soft occupancy threshold (overCapacity()).
     * @param num_blocks size of the id space [0, num_blocks) the
     *        residency bitset covers; inserting an id outside it is a
     *        simulator bug.
     */
    Stash(std::uint32_t capacity, std::uint64_t num_blocks);

    /** Add a block mapped to @p leaf. @return false if already
     *  present (the existing entry is left untouched). */
    bool insert(BlockId id, std::uint64_t data, Leaf leaf);

    /** O(1): one residency-bitset probe. */
    bool contains(BlockId id) const
    {
        const std::uint64_t v = id.value();
        return v < numBlocks_ && ((resident_[v >> 6] >> (v & 63)) & 1);
    }

    /** @return pointer to the block's payload word or nullptr.
     *  Invalidated by insert() and compact(). */
    std::uint64_t *findData(BlockId id);

    /** Cached leaf of @p id, or kInvalidLeaf if not resident. */
    Leaf leafOf(BlockId id) const;

    /**
     * Refresh the cached leaf of @p id if it is resident; no-op
     * otherwise. Called from PositionMap::setLeaf() so remaps made
     * mid-access (eviction, super-block merge/break) are visible to
     * the same access's eviction scan.
     */
    void updateLeaf(BlockId id, Leaf leaf);

    /**
     * Remove the block in live slot @p slot. The slot turns dead in
     * place (id lane kInvalidBlock) and every other slot keeps its
     * number until compact(), so a caller walking the lanes may
     * release several slots in one pass.
     */
    void releaseSlot(std::size_t slot);

    /** Drop dead slots, preserving the survivors' relative order.
     *  Starts at the lowest slot released since the last compaction;
     *  the slots before it do not move. */
    void compact();

    std::size_t size() const { return live_; }
    std::uint32_t capacity() const { return capacity_; }
    bool overCapacity() const { return live_ > capacity_; }

    /** @name SoA lanes (the eviction engine's hot interface).
     *  Slots [0, slotCount()) include dead entries: a slot is live iff
     *  idLane()[slot] != kInvalidBlock, and dead slots' leaf/data
     *  lanes hold stale values callers must ignore. Pointers are
     *  invalidated by insert() and compact(). @{ */
    std::size_t slotCount() const { return ids_.size(); }
    const BlockId *idLane() const { return ids_.data(); }
    const Leaf *leafLane() const { return leaves_.data(); }
    const std::uint64_t *dataLane() const { return data_.data(); }
    /** @} */

    /**
     * Visit every resident block without snapshotting, in insertion
     * order. @p fn is called as fn(const StashEntry &) with a view
     * assembled from the lanes; the stash must not be mutated during
     * iteration.
     */
    template <typename Fn>
    void forEachResident(Fn &&fn) const
    {
        const std::size_t n = ids_.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (ids_[i] != kInvalidBlock)
                fn(StashEntry{ids_[i], leaves_[i], data_[i]});
        }
    }

    /** Snapshot of resident ids in iteration order (invariant checks /
     *  tests only - allocates; use the lanes on hot paths). */
    std::vector<BlockId> residentIds() const;

    /** Record an occupancy sample (called once per eviction pass). */
    void sampleOccupancy()
    {
        occupancy_.sample(static_cast<double>(live_));
    }

    const stats::Distribution &occupancy() const { return occupancy_; }

  private:
    /** Slot of resident block @p id (the caller checked contains()).
     *  Scans newest first: the blocks an access looks up are the ones
     *  its own readPath just appended. */
    std::size_t slotOf(BlockId id) const;

    void setResident(std::uint64_t v, bool on)
    {
        const std::uint64_t bit = 1ULL << (v & 63);
        resident_[v >> 6] = on ? (resident_[v >> 6] | bit)
                               : (resident_[v >> 6] & ~bit);
    }

    std::uint32_t capacity_;
    std::uint64_t numBlocks_;
    /** Parallel SoA lanes; dead slots keep id == kInvalidBlock until
     *  compact() reclaims them. */
    std::vector<BlockId> ids_;
    std::vector<Leaf> leaves_;
    std::vector<std::uint64_t> data_;
    /** One bit per BlockId in [0, numBlocks_): set iff resident. */
    std::vector<std::uint64_t> resident_;
    std::size_t live_ = 0;
    std::size_t dead_ = 0;
    /** Lowest dead slot, kNoDeadSlot while there is none. */
    static constexpr std::size_t kNoDeadSlot = SIZE_MAX;
    std::size_t firstDead_ = kNoDeadSlot;
    stats::Distribution occupancy_;
};

// insert and releaseSlot run once per block moved between tree and
// stash, so they are inline.

PRORAM_HOT inline bool
Stash::insert(BlockId id, std::uint64_t data, Leaf leaf)
{
    panic_if(id.value() >= numBlocks_, "stash insert of block ", id,
             " outside the ", numBlocks_, "-block id space");
    if (contains(id))
        return false;
    setResident(id.value(), true);
    // PRORAM_LINT_ALLOW(hot-alloc): lanes reserve 2x capacity up
    // front; these appends only reallocate past double overflow.
    ids_.push_back(id);
    // PRORAM_LINT_ALLOW(hot-alloc): see above
    leaves_.push_back(leaf);
    // PRORAM_LINT_ALLOW(hot-alloc): see above
    data_.push_back(data);
    ++live_;
    return true;
}

PRORAM_HOT inline void
Stash::releaseSlot(std::size_t slot)
{
    const BlockId id = ids_[slot];
    panic_if(id == kInvalidBlock, "release of dead stash slot ", slot);
    // Mark dead in place: shuffling survivors would perturb the
    // insertion order the eviction scan (and replay determinism)
    // depends on. compact() preserves relative order. The leaf/data
    // lanes keep their stale words - lane consumers skip dead slots
    // by id.
    ids_[slot] = kInvalidBlock;
    setResident(id.value(), false);
    --live_;
    ++dead_;
    if (slot < firstDead_)
        firstDead_ = slot;
}

} // namespace proram

#endif // PRORAM_ORAM_STASH_HH
