/**
 * @file
 * The on-chip stash: blocks read from the tree that have not yet been
 * evicted back. Path ORAM's invariant is that a block mapped to leaf s
 * is either on path s or in the stash.
 *
 * Storage is one dense insertion-ordered store in structure-of-arrays
 * form: three parallel fixed-capacity lanes (block ids, cached
 * leaves, payload words) share slot numbering, with a slot count in
 * front of them; the lanes only grow in one cold grow(). There is no
 * id -> slot index. Residency is a bitset over the whole BlockId
 * space, sized at construction, so contains() and the duplicate
 * check are O(1) and the hot path never allocates; the few
 * per-access lookups by id (findData, leafOf, updateLeaf) test the
 * bitset first and only then scan the id lane, which holds a few
 * dozen live slots.
 *
 * A path read appends in bulk: openTail() hands out a write window
 * past the last slot, the caller copies whole buckets into it and
 * advances by "slot is real", and commitTail() sets the residency
 * bits of the entries it kept in one pass (raising the id-range and
 * duplicate panics there). Eviction moves blocks out by slot: it
 * already holds each block's slot from its lane scan, releases all
 * the slots it placed in one bulk pass (they turn dead in place,
 * survivors do not move) and compacts once at the end, from the
 * first dead slot on, so iteration order stays insertion order by
 * construction - the determinism the replay tests rely on. Between
 * passes the stash is compacted: every slot below slotCount() is
 * live. Eviction classifies each slot straight from the contiguous
 * leaf lane (BinaryTree::commonLevel, one bit_width per block) with
 * no per-entry struct stride. Cached leaves mirror the position map
 * (kept coherent by PositionMap's setLeaf hook) and are what eviction
 * writes into the tree's slot headers, so neither half of an access
 * does a position-map lookup per block.
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
 * Pointers returned by findData(), openTail() and the lane pointers
 * are invalidated by insert(), openTail() and compact().
 */
class Stash
{
  public:
    /**
     * @param capacity soft occupancy threshold (overCapacity()).
     * @param num_blocks size of the id space [0, num_blocks) the
     *        residency bitset covers; inserting an id outside it is a
     *        simulator bug.
     * @param window the largest openTail() the owner will ask for
     *        (a whole path's slots); the lanes start with room for
     *        twice @p capacity plus one window.
     */
    Stash(std::uint32_t capacity, std::uint64_t num_blocks,
          std::size_t window = 0);

    /** Add a block mapped to @p leaf. @return false if already
     *  present (the existing entry is left untouched). */
    bool insert(BlockId id, std::uint64_t data, Leaf leaf);

    /** Write window past the last slot (openTail()). */
    struct Tail
    {
        BlockId *ids;
        Leaf *leaves;
        std::uint64_t *data;
    };

    /**
     * Room for @p n appended blocks: lane pointers to the slots just
     * past slotCount(). The caller writes candidates into the window
     * in order and keeps the first k of them by calling
     * commitTail(k); anything written past k is ignored.
     */
    Tail openTail(std::size_t n)
    {
        if (slots_ + n > ids_.size())
            grow(slots_ + n);
        return Tail{ids_.data() + slots_, leaves_.data() + slots_,
                    data_.data() + slots_};
    }

    /**
     * Make the first @p n entries of the open window resident, in
     * order: one pass sets their residency bits. Panics, naming the
     * block, on an id outside the id space or on a block that is
     * already resident (a block duplicated between tree and stash).
     */
    void commitTail(std::size_t n);

    /** O(1): one residency-bitset probe. */
    bool contains(BlockId id) const
    {
        const std::uint64_t v = id.value();
        return v < numBlocks_ && ((resident_[v >> 6] >> (v & 63)) & 1);
    }

    /** @return pointer to the block's payload word or nullptr.
     *  Invalidated by insert(), openTail() and compact(). */
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

    /** releaseSlot() of @p n distinct live slots in one pass. */
    void releaseSlots(const std::uint32_t *slots, std::size_t n);

    /** Drop dead slots, preserving the survivors' relative order.
     *  Starts at the lowest slot released since the last compaction;
     *  the slots before it do not move. */
    void compact();

    /** True when no slot is dead (every slot is live). */
    bool compacted() const { return dead_ == 0; }

    std::size_t size() const { return live_; }
    std::uint32_t capacity() const { return capacity_; }
    bool overCapacity() const { return live_ > capacity_; }

    /** @name SoA lanes (the eviction engine's hot interface).
     *  Slots [0, slotCount()) include dead entries until compact(): a
     *  slot is live iff idLane()[slot] != kInvalidBlock, and dead
     *  slots' leaf/data lanes hold stale values callers must ignore.
     *  Pointers are invalidated by insert(), openTail() and
     *  compact(). @{ */
    std::size_t slotCount() const { return slots_; }
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
        for (std::size_t i = 0; i < slots_; ++i) {
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

    /** Resize the lanes to hold at least @p slots slots (the one
     *  place they allocate; doubles, so appends stay amortized). */
    void grow(std::size_t slots);

    std::uint32_t capacity_;
    std::uint64_t numBlocks_;
    /** Parallel SoA lanes of fixed length (grown only by grow());
     *  slots [0, slots_) are in use, dead ones with id ==
     *  kInvalidBlock until compact() reclaims them. */
    std::vector<BlockId> ids_;
    std::vector<Leaf> leaves_;
    std::vector<std::uint64_t> data_;
    std::size_t slots_ = 0;
    /** One bit per BlockId in [0, numBlocks_): set iff resident. */
    std::vector<std::uint64_t> resident_;
    std::size_t live_ = 0;
    std::size_t dead_ = 0;
    /** Lowest dead slot, kNoDeadSlot while there is none. */
    static constexpr std::size_t kNoDeadSlot = SIZE_MAX;
    std::size_t firstDead_ = kNoDeadSlot;
    stats::Distribution occupancy_;
};

// The per-block moves between tree and stash are inline.

PRORAM_HOT inline bool
Stash::insert(BlockId id, std::uint64_t data, Leaf leaf)
{
    panic_if(id.value() >= numBlocks_, "stash insert of block ", id,
             " outside the ", numBlocks_, "-block id space");
    if (contains(id))
        return false;
    const Tail t = openTail(1);
    t.ids[0] = id;
    t.leaves[0] = leaf;
    t.data[0] = data;
    commitTail(1);
    return true;
}

PRORAM_HOT inline void
Stash::commitTail(std::size_t n)
{
    const BlockId *ids = ids_.data() + slots_;
    std::uint64_t *resident = resident_.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = ids[i].value();
        panic_if(v >= numBlocks_, "stash insert of block ", ids[i],
                 " outside the ", numBlocks_, "-block id space");
        const std::uint64_t bit = 1ULL << (v & 63);
        panic_if(resident[v >> 6] & bit, "block ", ids[i],
                 " duplicated between tree and stash");
        resident[v >> 6] |= bit;
    }
    slots_ += n;
    live_ += n;
}

PRORAM_HOT inline void
Stash::releaseSlot(std::size_t slot)
{
    const std::uint32_t s = static_cast<std::uint32_t>(slot);
    releaseSlots(&s, 1);
}

PRORAM_HOT inline void
Stash::releaseSlots(const std::uint32_t *slots, std::size_t n)
{
    // Mark dead in place: shuffling survivors would perturb the
    // insertion order the eviction scan (and replay determinism)
    // depends on. compact() preserves relative order. The leaf/data
    // lanes keep their stale words - lane consumers skip dead slots
    // by id.
    std::uint64_t *resident = resident_.data();
    std::size_t lowest = firstDead_;
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t slot = slots[k];
        panic_if(slot >= slots_ || ids_[slot] == kInvalidBlock,
                 "release of dead stash slot ", slot);
        const std::uint64_t v = ids_[slot].value();
        resident[v >> 6] &= ~(1ULL << (v & 63));
        ids_[slot] = kInvalidBlock;
        lowest = slot < lowest ? slot : lowest;
    }
    live_ -= n;
    dead_ += n;
    firstDead_ = lowest;
}

} // namespace proram

#endif // PRORAM_ORAM_STASH_HH
