#include "oram/stash.hh"

#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

Stash::Stash(std::uint32_t capacity, std::uint64_t num_blocks)
    : capacity_(capacity), numBlocks_(num_blocks),
      resident_((num_blocks + 63) / 64, 0)
{
    const std::size_t reserve = static_cast<std::size_t>(capacity) * 2;
    ids_.reserve(reserve);
    leaves_.reserve(reserve);
    data_.reserve(reserve);
}

PRORAM_HOT std::size_t
Stash::slotOf(BlockId id) const
{
    for (std::size_t i = ids_.size(); i-- > 0;) {
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

void
Stash::compact()
{
    if (dead_ == 0)
        return;
    // Slots below the first hole are already in place.
    std::size_t out = firstDead_;
    for (std::size_t in = firstDead_ + 1; in < ids_.size(); ++in) {
        if (ids_[in] == kInvalidBlock)
            continue;
        if (out != in) {
            ids_[out] = ids_[in];
            leaves_[out] = leaves_[in];
            data_[out] = data_[in];
        }
        ++out;
    }
    ids_.resize(out);
    leaves_.resize(out);
    data_.resize(out);
    dead_ = 0;
    firstDead_ = kNoDeadSlot;
}

std::vector<BlockId>
Stash::residentIds() const
{
    std::vector<BlockId> out;
    out.reserve(live_);
    for (BlockId id : ids_) {
        if (id != kInvalidBlock)
            out.push_back(id);
    }
    return out;
}

} // namespace proram
