#include "oram/stash.hh"

#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

Stash::Stash(std::uint32_t capacity, std::uint64_t num_blocks,
             std::size_t window)
    : capacity_(capacity), numBlocks_(num_blocks),
      resident_((num_blocks + 63) / 64, 0)
{
    grow(static_cast<std::size_t>(capacity) * 2 + window);
}

void
Stash::grow(std::size_t slots)
{
    std::size_t size = ids_.size() * 2;
    if (size < slots)
        size = slots;
    ids_.resize(size, kInvalidBlock);
    leaves_.resize(size, kInvalidLeaf);
    data_.resize(size, 0);
}

PRORAM_HOT std::size_t
Stash::slotOf(BlockId id) const
{
    for (std::size_t i = slots_; i-- > 0;) {
        if (ids_[i] == id)
            return i;
    }
    panic("block ", id, " marked resident but absent from the stash");
}

PRORAM_HOT std::uint64_t *
Stash::findData(BlockId id)
{
    return contains(id) ? &data_[slotOf(id)] : nullptr;
}

PRORAM_HOT Leaf
Stash::leafOf(BlockId id) const
{
    return contains(id) ? leaves_[slotOf(id)] : kInvalidLeaf;
}

PRORAM_HOT void
Stash::updateLeaf(BlockId id, Leaf leaf)
{
    if (contains(id))
        leaves_[slotOf(id)] = leaf;
}

PRORAM_HOT void
Stash::compact()
{
    if (dead_ == 0)
        return;
    // Slots below the first hole are already in place. Every slot is
    // copied down and the output cursor advances past the live ones,
    // so the loop does not branch on which slots are dead.
    BlockId *ids = ids_.data();
    Leaf *leaves = leaves_.data();
    std::uint64_t *data = data_.data();
    std::size_t out = firstDead_;
    for (std::size_t in = firstDead_ + 1; in < slots_; ++in) {
        const BlockId id = ids[in];
        ids[out] = id;
        leaves[out] = leaves[in];
        data[out] = data[in];
        out += id != kInvalidBlock;
    }
    slots_ = out;
    dead_ = 0;
    firstDead_ = kNoDeadSlot;
}

std::vector<BlockId>
Stash::residentIds() const
{
    std::vector<BlockId> out;
    out.reserve(live_);
    forEachResident([&](const StashEntry &e) { out.push_back(e.id); });
    return out;
}

} // namespace proram
