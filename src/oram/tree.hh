/**
 * @file
 * The Path ORAM binary-tree storage: a chunked structure-of-arrays
 * slot arena living in (simulated) untrusted DRAM, behind a pluggable
 * storage backend (mem/arena.hh, DESIGN.md Sec. 12).
 *
 * Node numbering is heap order: node 0 is the root; node n has children
 * 2n+1 / 2n+2. Leaf label s in [0, 2^L) names the leaf reached by
 * following s's bits from the root; path s is the L+1 buckets from the
 * root to that leaf. Node indices are the *public* coordinates of the
 * protocol (the server sees every bucket touched), so they carry their
 * own strong type (TreeIdx) distinct from the secret leaf labels that
 * select them - confusing the two is a compile error.
 *
 * Memory layout (DESIGN.md "Memory layout" / Sec. 12): buckets are
 * grouped into fixed-size chunks; within a chunk, bucket c slot i
 * lives at lane offset c*Z+i. Slot headers and payload words are
 * split into two parallel lanes so the hot scans (readPath looking
 * for real blocks, occupancy checks) stream over one contiguous
 * header run per bucket and never touch payloads they do not copy.
 * A header is {uint32 id, uint32 leaf} (mem/arena.hh SlotHeader):
 * like Path ORAM's in-tree block metadata, it carries the leaf the
 * block was placed under, so readPath moves a block into the stash
 * without a position-map lookup and the eviction writes the stash's
 * cached leaf back. The header leaf equals PositionMap::leafOf for
 * every tree-resident block because only stash-resident blocks are
 * remapped (DESIGN.md Sec. 14; checkIntegrity verifies it). Per-bucket
 * free-slot counts are a third lane, making occupancy O(1). A chunk
 * that was never *written* is implicit: it reads as all-dummy without
 * existing in memory, which is what makes paper-scale (2^26-block)
 * trees affordable - reads never materialize, only placing a block
 * (fillBucket, tryPlace) and the raw test accessors do.
 *
 * The engine moves blocks a bucket at a time (drainBucket /
 * drainBucketOnLeaf / fillBucket: one chunk-directory lookup per
 * bucket, DESIGN.md Sec. 7); tryPlace / clearSlot and BucketRef are
 * the per-slot forms the tests and the integrity checker use.
 */

#ifndef PRORAM_ORAM_TREE_HH
#define PRORAM_ORAM_TREE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mem/arena.hh"
#include "oram/stash.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace proram
{

class BinaryTree;

/**
 * Lightweight view of one bucket inside the tree's slot arena. Cheap
 * to construct (a pointer + node index); mutating methods maintain the
 * bucket's free-slot count. The raw accessors exist for tests that
 * corrupt state deliberately - occupancy changes made through them are
 * not reflected in the free count (use occupancyScan() afterwards).
 */
class BucketRef
{
  public:
    std::uint32_t z() const;

    BlockId id(std::uint32_t i) const;
    Leaf leaf(std::uint32_t i) const;
    std::uint64_t data(std::uint32_t i) const;
    bool isDummy(std::uint32_t i) const { return id(i) == kInvalidBlock; }

    /** Real (non-dummy) blocks resident, from the free count (O(1)). */
    std::uint32_t occupancy() const;

    /**
     * Real blocks resident by scanning the Z slots (O(Z)). Ground
     * truth even after raw-slot corruption; the checked slow path the
     * tests compare against occupancy().
     */
    std::uint32_t occupancyScan() const;

    /** Free slots available via tryPlace(). */
    std::uint32_t freeSlots() const;

    /**
     * Place block @p id, mapped to @p leaf, into the first dummy slot.
     * @return false if the bucket is full (O(1) in that case).
     */
    bool tryPlace(BlockId id, Leaf leaf, std::uint64_t data);

    /** Evict slot @p i back to dummy, releasing it for reuse. */
    void clearSlot(std::uint32_t i);

    /** @name Raw slot words (test/corruption interface).
     *  Writes bypass the free-slot bookkeeping; taking a reference
     *  counts as a write and materializes the owning chunk. @{ */
    SlotHeader &rawHeader(std::uint32_t i);
    std::uint64_t &rawData(std::uint32_t i);
    /** @} */

  private:
    friend class BinaryTree;
    BucketRef(BinaryTree *tree, TreeIdx node) : tree_(tree), node_(node)
    {
    }

    BinaryTree *tree_;
    TreeIdx node_;
};

/**
 * The complete binary tree of buckets over the chunked slot arena.
 * Provides path geometry helpers used by the ORAM engine and by the
 * invariant checker.
 *
 * Read accessors (slotHeader/slotId/slotLeaf/slotData/freeSlots/
 * occupancy) never materialize: an implicit chunk answers all-dummy
 * from the null directory entry alone. Writes (tryPlace,
 * rawHeader/rawData) materialize the owning chunk on first touch;
 * clearSlot of an implicit chunk is a no-op (the slot is already
 * dummy).
 */
class BinaryTree
{
  public:
    /** @param levels L: root is level 0, leaves level L.
     *  @param arena storage backend selection (mem/arena.hh); the
     *  default resolves $PRORAM_ARENA and falls back to dense. */
    BinaryTree(std::uint32_t levels, std::uint32_t z,
               const ArenaOptions &arena = {});

    std::uint32_t levels() const { return levels_; }
    /** One past the deepest level: Level{0} .. leafLevel(). */
    Level leafLevel() const { return Level{levels_}; }
    std::uint64_t numLeaves() const { return 1ULL << levels_; }
    std::uint64_t numBuckets() const { return numBuckets_; }
    std::uint32_t z() const { return z_; }

    /** The storage backend (geometry + materialization telemetry). */
    const ArenaBackend &arena() const { return *arena_; }

    /** Heap index of the bucket at @p level on path @p leaf
     *  (range-checks both; see pathNode for the unchecked form). */
    TreeIdx nodeOnPath(Leaf leaf, Level level) const;

    /** Panic unless @p leaf names one of the tree's leaves: the one
     *  range check a path walk needs before it calls pathNode. */
    void checkLeaf(Leaf leaf) const;

    /**
     * nodeOnPath without the range checks, for path walks that ran
     * checkLeaf once and only pass levels in [0, levels()]. Heap
     * level l spans indices [2^l - 1, 2^(l+1) - 2] and the path node
     * within it is indexed by the top l bits of the leaf label, so
     * the bit-by-bit walk collapses to one shift-and-add.
     */
    TreeIdx pathNode(Leaf leaf, std::uint32_t level) const
    {
        return TreeIdx{((1ULL << level) - 1) +
                       (static_cast<std::uint64_t>(leaf.value()) >>
                        (levels_ - level))};
    }

    /** View of bucket @p node. */
    BucketRef bucket(TreeIdx node) { return BucketRef(this, node); }
    BucketRef bucket(TreeIdx node) const
    {
        return BucketRef(const_cast<BinaryTree *>(this), node);
    }

    /** @name Arena hot-path accessors (chunked; bucket b slot i at
     *  lane offset (b mod chunk)*Z+i of chunk b/chunk). @{ */
    /** Header of slot @p i of @p node (dummy for an implicit chunk). */
    SlotHeader slotHeader(TreeIdx node, std::uint32_t i) const
    {
        const std::uint64_t n = node.value();
        const ArenaBackend::View v = arena_->view(n >> chunkShift_);
        if (v.headers == nullptr)
            return SlotHeader{};
        return v.headers[(n & chunkMask_) * z_ + i];
    }
    /** Block in slot @p i of @p node, kInvalidBlock if dummy. */
    BlockId slotId(TreeIdx node, std::uint32_t i) const
    {
        return slotHeader(node, i).blockId();
    }
    /** Leaf label stored with slot @p i 's block, kInvalidLeaf if
     *  dummy. */
    Leaf slotLeaf(TreeIdx node, std::uint32_t i) const
    {
        return slotHeader(node, i).leafLabel();
    }
    std::uint64_t slotData(TreeIdx node, std::uint32_t i) const
    {
        const std::uint64_t n = node.value();
        const ArenaBackend::View v = arena_->view(n >> chunkShift_);
        if (v.headers == nullptr)
            return 0;
        return v.data[(n & chunkMask_) * z_ + i];
    }

    /** Free slots of @p node (O(1); z for an implicit chunk). */
    std::uint32_t freeSlots(TreeIdx node) const
    {
        const std::uint64_t n = node.value();
        const ArenaBackend::View v = arena_->view(n >> chunkShift_);
        if (v.headers == nullptr)
            return z_;
        return v.free[n & chunkMask_];
    }
    /** Real blocks in @p node from the free count (O(1)). */
    std::uint32_t occupancy(TreeIdx node) const
    {
        return z_ - freeSlots(node);
    }

    /** Place block @p id, mapped to @p leaf, in the first dummy slot
     *  of @p node; false if the bucket is full (O(1) in that case).
     *  Materializes the owning chunk on first touch. */
    bool tryPlace(TreeIdx node, BlockId id, Leaf leaf,
                  std::uint64_t data);

    /** Evict slot @p i of @p node back to dummy. */
    void clearSlot(TreeIdx node, std::uint32_t i);
    /** @} */

    /** @name Bucket-granular moves (the engine's path I/O). One
     *  chunk-directory lookup per bucket; slot order and free counts
     *  are exactly those of a clearSlot / tryPlace per block. @{ */
    /**
     * Move every real block out of @p node, in slot order, into the
     * stash write window @p out at offset @p at (Stash::openTail):
     * all Z slots are copied and the offset advances by "slot is
     * real", so the loop does not branch on which slots hold blocks.
     * Then the whole bucket is cleared (headers dummy, payloads
     * zeroed, as clearSlot does) and its free count set to Z. The
     * window needs Z entries past @p at. An implicit chunk (all-dummy
     * already) is left untouched.
     * @return the blocks moved.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT std::uint32_t
    drainBucket(TreeIdx node, const Stash::Tail &out, std::size_t at)
    {
        const std::uint64_t n = node.value();
        const ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
        if (l.headers == nullptr)
            return 0;
        SlotHeader *h = l.headers + (n & chunkMask_) * z_;
        std::uint64_t *d = l.data + (n & chunkMask_) * z_;
        BlockId *ids = out.ids + at;
        Leaf *leaves = out.leaves + at;
        std::uint64_t *data = out.data + at;
        std::uint32_t moved = 0;
        for (std::uint32_t i = 0; i < z_; ++i) {
            const SlotHeader slot = h[i];
            ids[moved] = BlockId{slot.id};
            leaves[moved] = Leaf{slot.leaf};
            data[moved] = d[i];
            moved += !slot.isDummy();
        }
        for (std::uint32_t i = 0; i < z_; ++i) {
            h[i] = SlotHeader{};
            d[i] = 0;
        }
        l.free[n & chunkMask_] = z_;
        return moved;
    }

    /**
     * Move just the blocks of @p node whose header leaf is @p only
     * (Ring ORAM's interest set) into the window @p out at offset
     * @p at, in slot order, turning their slots dummy; the rest stay
     * in place. Which blocks a bucket read returns is client-internal
     * metadata (the slot header) - the public pattern is the bucket
     * touch. Takes are rare, so this loop branches per slot; it does
     * not branch on the bucket's occupancy (an empty bucket's dummy
     * headers match no leaf). An implicit chunk is skipped.
     * @return the blocks moved.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT std::uint32_t
    drainBucketOnLeaf(TreeIdx node, Leaf only, const Stash::Tail &out,
                      std::size_t at)
    {
        const std::uint64_t n = node.value();
        const ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
        if (l.headers == nullptr)
            return 0;
        SlotHeader *h = l.headers + (n & chunkMask_) * z_;
        std::uint64_t *d = l.data + (n & chunkMask_) * z_;
        std::uint32_t moved = 0;
        for (std::uint32_t i = 0; i < z_; ++i) {
            // A dummy header's leaf is kInvalidLeaf, which names no
            // path, so one compare selects real blocks on @p only.
            // PRORAM_LINT_ALLOW(secret-branch): the interest-set probe
            // reads client-internal header metadata (see above).
            if (h[i].leafLabel() != only)
                continue;
            out.ids[at + moved] = BlockId{h[i].id};
            out.leaves[at + moved] = only;
            out.data[at + moved] = d[i];
            h[i] = SlotHeader{};
            d[i] = 0;
            ++moved;
        }
        l.free[n & chunkMask_] += moved;
        return moved;
    }

    /**
     * Fill up to @p want dummy slots of @p node in ascending slot
     * order - the slot tryPlace would pick each time - calling
     * @p next(header, data) to write each one, then debit the free
     * count once. An empty bucket (every path bucket right after a
     * drain) takes its first slots without a dummy scan; a partly
     * full one falls back to scanning for dummy slots. Materializes
     * the chunk only when a block is actually placed (@p want > 0
     * and the bucket has room).
     * @return the blocks placed, min(want, free slots).
     */
    template <typename Next>
    std::uint32_t fillBucket(TreeIdx node, std::uint32_t want,
                             Next &&next)
    {
        const std::uint64_t n = node.value();
        if (want == 0)
            return 0;
        ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
        if (l.headers == nullptr)
            l = arena_->materialize(n >> chunkShift_);
        std::uint32_t &free = l.free[n & chunkMask_];
        const std::uint32_t place = want < free ? want : free;
        SlotHeader *h = l.headers + (n & chunkMask_) * z_;
        std::uint64_t *d = l.data + (n & chunkMask_) * z_;
        if (free == z_) {
            for (std::uint32_t i = 0; i < place; ++i)
                next(h[i], d[i]);
        } else {
            std::uint32_t placed = 0;
            for (std::uint32_t i = 0; i < z_ && placed < place; ++i) {
                if (!h[i].isDummy())
                    continue;
                next(h[i], d[i]);
                ++placed;
            }
            panic_if(placed != place, "bucket free-slot count ", free,
                     " but only ", placed, " dummy slots");
        }
        free -= place;
        return place;
    }
    /** @} */

    /**
     * Deepest level at which paths @p a and @p b share a bucket
     * (their lowest common ancestor's level). Paths diverge at the
     * highest differing leaf bit: the shared depth is levels() minus
     * the XOR's bit width (equal labels share the whole path). Inline
     * because eviction classifies every stash block with it.
     */
    Level commonLevel(Leaf a, Leaf b) const
    {
        return Level{levels_ - static_cast<std::uint32_t>(
                                   std::bit_width(a ^ b))};
    }

    /** Total real blocks stored in the tree, by scanning the
     *  materialized chunks (O(resident slots); tests only - reflects
     *  raw-slot corruption). */
    std::uint64_t countRealBlocks() const;

  private:
    friend class BucketRef;

    /** Writable slot words; materializes the owning chunk. */
    SlotHeader &rawSlotHeader(TreeIdx node, std::uint32_t i);
    std::uint64_t &rawSlotData(TreeIdx node, std::uint32_t i);

    std::uint32_t levels_;
    std::uint32_t z_;
    std::uint64_t numBuckets_;
    /** Chunked slot-lane storage (dense / sparse / mmap). */
    std::unique_ptr<ArenaBackend> arena_;
    /** Cached arena geometry (node -> chunk, node -> in-chunk). */
    std::uint32_t chunkShift_;
    std::uint64_t chunkMask_;
};

inline std::uint32_t
BucketRef::z() const
{
    return tree_->z_;
}

inline BlockId
BucketRef::id(std::uint32_t i) const
{
    return tree_->slotId(node_, i);
}

inline Leaf
BucketRef::leaf(std::uint32_t i) const
{
    return tree_->slotLeaf(node_, i);
}

inline std::uint64_t
BucketRef::data(std::uint32_t i) const
{
    return tree_->slotData(node_, i);
}

inline std::uint32_t
BucketRef::occupancy() const
{
    return tree_->occupancy(node_);
}

inline std::uint32_t
BucketRef::freeSlots() const
{
    return tree_->freeSlots(node_);
}

inline bool
BucketRef::tryPlace(BlockId id, Leaf leaf, std::uint64_t data)
{
    return tree_->tryPlace(node_, id, leaf, data);
}

inline void
BucketRef::clearSlot(std::uint32_t i)
{
    tree_->clearSlot(node_, i);
}

inline SlotHeader &
BucketRef::rawHeader(std::uint32_t i)
{
    return tree_->rawSlotHeader(node_, i);
}

inline std::uint64_t &
BucketRef::rawData(std::uint32_t i)
{
    return tree_->rawSlotData(node_, i);
}

} // namespace proram

#endif // PRORAM_ORAM_TREE_HH
