#include "oram/stash.hh"

#include "util/annotations.hh"

namespace proram
{

Stash::Stash(std::uint32_t capacity)
    : capacity_(capacity),
      index_(static_cast<std::size_t>(capacity) * 2)
{
    const std::size_t reserve = static_cast<std::size_t>(capacity) * 2;
    ids_.reserve(reserve);
    leaves_.reserve(reserve);
    data_.reserve(reserve);
}

PRORAM_HOT bool
Stash::insert(BlockId id, std::uint64_t data, Leaf leaf)
{
    if (index_.get(id.value()) != FlatIndex::kNone)
        return false;
    index_.put(id.value(), static_cast<std::uint32_t>(ids_.size()));
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

PRORAM_HOT std::uint64_t *
Stash::findData(BlockId id)
{
    const std::uint32_t slot = index_.get(id.value());
    return slot == FlatIndex::kNone ? nullptr : &data_[slot];
}

PRORAM_HOT Leaf
Stash::leafOf(BlockId id) const
{
    const std::uint32_t slot = index_.get(id.value());
    return slot == FlatIndex::kNone ? kInvalidLeaf : leaves_[slot];
}

PRORAM_HOT bool
Stash::erase(BlockId id)
{
    const std::uint32_t slot = index_.get(id.value());
    if (slot == FlatIndex::kNone)
        return false;
    // Mark dead in place: shuffling survivors would perturb the
    // insertion order the eviction scan (and replay determinism)
    // depends on. Compaction below preserves relative order. The
    // leaf/data lanes keep their stale words - lane consumers skip
    // dead slots by id.
    ids_[slot] = kInvalidBlock;
    index_.erase(id.value());
    --live_;
    ++dead_;
    if (dead_ >= 16 && dead_ >= live_)
        compact();
    return true;
}

PRORAM_HOT void
Stash::updateLeaf(BlockId id, Leaf leaf)
{
    const std::uint32_t slot = index_.get(id.value());
    if (slot != FlatIndex::kNone)
        leaves_[slot] = leaf;
}

void
Stash::compact()
{
    std::size_t out = 0;
    for (std::size_t in = 0; in < ids_.size(); ++in) {
        if (ids_[in] == kInvalidBlock)
            continue;
        if (out != in) {
            ids_[out] = ids_[in];
            leaves_[out] = leaves_[in];
            data_[out] = data_[in];
        }
        index_.put(ids_[out].value(), static_cast<std::uint32_t>(out));
        ++out;
    }
    ids_.resize(out);
    leaves_.resize(out);
    data_.resize(out);
    dead_ = 0;
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
