#include "oram/tree.hh"

#include <cassert>

#include "util/logging.hh"

namespace proram
{

std::uint32_t
BucketRef::occupancyScan() const
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < tree_->z_; ++i) {
        if (!isDummy(i))
            ++n;
    }
    return n;
}

BinaryTree::BinaryTree(std::uint32_t levels, std::uint32_t z,
                       const ArenaOptions &arena)
    : levels_(levels), z_(z)
{
    fatal_if(levels > 40, "tree too deep to simulate functionally");
    numBuckets_ = (2ULL << levels) - 1;
    arena_ = ArenaBackend::make(arena, numBuckets_, z_);
    chunkShift_ = arena_->chunkShift();
    chunkMask_ = arena_->chunkBuckets() - 1;
}

void
BinaryTree::checkLeaf(Leaf leaf) const
{
    panic_if(leaf.value() >= numLeaves(), "leaf ", leaf,
             " out of range");
}

TreeIdx
BinaryTree::nodeOnPath(Leaf leaf, Level level) const
{
    checkLeaf(leaf);
    panic_if(level.value() > levels_, "level ", level, " out of range");
    return pathNode(leaf, level.value());
}

bool
BinaryTree::tryPlace(TreeIdx node, BlockId id, Leaf leaf,
                     std::uint64_t data)
{
    assert(id.value() < SlotHeader::kMaxBlocks &&
           "block id does not fit the slot header");
    const std::uint64_t n = node.value();
    ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
    if (l.headers != nullptr && l.free[n & chunkMask_] == 0)
        return false;
    if (l.headers == nullptr) {
        // First write into an implicit chunk: the bucket is all-dummy
        // (it cannot be full), so a placement is guaranteed and the
        // materialization cost is paid by an insertion, never a read.
        l = arena_->materialize(n >> chunkShift_);
    }
    const std::uint64_t base = (n & chunkMask_) * z_;
    for (std::uint32_t i = 0; i < z_; ++i) {
        if (l.headers[base + i].isDummy()) {
            l.headers[base + i] = SlotHeader{id, leaf};
            l.data[base + i] = data;
            --l.free[n & chunkMask_];
            return true;
        }
    }
    panic("bucket free-slot count ", l.free[n & chunkMask_],
          " but no dummy slot");
}

void
BinaryTree::clearSlot(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
    if (l.headers == nullptr)
        return; // implicit chunk: the slot is already dummy
    const std::uint64_t at = (n & chunkMask_) * z_ + i;
    if (!l.headers[at].isDummy()) {
        ++l.free[n & chunkMask_];
        l.data[at] = 0;
    }
    l.headers[at] = SlotHeader{};
}

SlotHeader &
BinaryTree::rawSlotHeader(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->materialize(n >> chunkShift_);
    return l.headers[(n & chunkMask_) * z_ + i];
}

std::uint64_t &
BinaryTree::rawSlotData(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->materialize(n >> chunkShift_);
    return l.data[(n & chunkMask_) * z_ + i];
}

std::uint64_t
BinaryTree::countRealBlocks() const
{
    std::uint64_t n = 0;
    const std::uint64_t chunk_slots =
        static_cast<std::uint64_t>(arena_->chunkBuckets()) * z_;
    for (std::uint64_t c = 0; c < arena_->numChunks(); ++c) {
        const ArenaBackend::View v = arena_->view(c);
        if (v.headers == nullptr)
            continue; // implicit chunk: all-dummy by construction
        for (std::uint64_t s = 0; s < chunk_slots; ++s) {
            if (!v.headers[s].isDummy())
                ++n;
        }
    }
    return n;
}

} // namespace proram
