#include "oram/position_map.hh"

#include "mem/arena.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

BlockSpace::BlockSpace(const OramConfig &cfg)
    : numData_(cfg.numDataBlocks), fanout_(cfg.posMapFanout())
{
    std::uint64_t count = numData_;
    BlockId base{numData_};
    for (std::uint32_t l = 0; l < cfg.posMapLevels(); ++l) {
        count = divCeil(count, fanout_);
        levelBase_.push_back(base);
        levelCount_.push_back(count);
        base += count;
    }
    total_ = base.value();
    fatal_if(total_ >= SlotHeader::kMaxBlocks, "ORAM of ", total_,
             " blocks (data + position map) exceeds the 32-bit id of "
             "the tree slot header (at most ",
             SlotHeader::kMaxBlocks - 1, " blocks)");
}

std::uint32_t
BlockSpace::levelOf(BlockId id) const
{
    panic_if(id.value() >= total_, "block id ", id, " out of range");
    if (id.value() < numData_)
        return 0;
    for (std::uint32_t l = 0; l < levelBase_.size(); ++l) {
        if (id < levelBase_[l] + levelCount_[l])
            return l + 1;
    }
    panic("unreachable: id ", id, " not in any level");
}

BlockId
BlockSpace::posMapBlockOf(BlockId id) const
{
    const std::uint32_t level = levelOf(id);
    // Index of this block within its own level.
    const std::uint64_t index =
        level == 0 ? id.value() : id - levelBase_[level - 1];
    if (level >= levelBase_.size()) {
        // The covering table is on-chip.
        return kInvalidBlock;
    }
    return levelBase_[level] + index / fanout_;
}

BlockId
BlockSpace::levelBase(std::uint32_t level) const
{
    panic_if(level == 0 || level > levelBase_.size(),
             "pos-map level ", level, " out of range");
    return levelBase_[level - 1];
}

std::uint64_t
BlockSpace::levelCount(std::uint32_t level) const
{
    panic_if(level == 0 || level > levelCount_.size(),
             "pos-map level ", level, " out of range");
    return levelCount_[level - 1];
}

PositionMap::PositionMap(std::uint64_t num_blocks, Leaf num_leaves)
    : entries_(num_blocks), numLeaves_(num_leaves)
{
    fatal_if(num_leaves == Leaf{0},
             "position map needs at least one leaf");
}

PosEntry &
PositionMap::entry(BlockId id)
{
    panic_if(id.value() >= entries_.size(), "pos-map index ", id,
             " out of range");
    return entries_[id.value()];
}

const PosEntry &
PositionMap::entry(BlockId id) const
{
    panic_if(id.value() >= entries_.size(), "pos-map index ", id,
             " out of range");
    return entries_[id.value()];
}

PosMapBlockCache::PosMapBlockCache(std::uint32_t entries)
    : capacity_(entries), nodes_(entries), index_(entries)
{
    fatal_if(entries == 0, "PLB needs at least one entry");
}

void
PosMapBlockCache::unlink(std::uint32_t slot)
{
    Node &n = nodes_[slot];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
PosMapBlockCache::linkFront(std::uint32_t slot)
{
    Node &n = nodes_[slot];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil)
        tail_ = slot;
}

bool
PosMapBlockCache::lookup(BlockId pm_block)
{
    const std::uint32_t slot = index_.get(pm_block.value());
    if (slot == FlatIndex::kNone) {
        ++misses_;
        return false;
    }
    ++hits_;
    if (head_ != slot) {
        unlink(slot);
        linkFront(slot);
    }
    return true;
}

void
PosMapBlockCache::insert(BlockId pm_block)
{
    std::uint32_t slot = index_.get(pm_block.value());
    if (slot != FlatIndex::kNone) {
        if (head_ != slot) {
            unlink(slot);
            linkFront(slot);
        }
        return;
    }
    if (used_ < capacity_) {
        slot = used_++;
    } else {
        slot = tail_;
        index_.erase(nodes_[slot].id.value());
        unlink(slot);
    }
    nodes_[slot].id = pm_block;
    linkFront(slot);
    index_.put(pm_block.value(), slot);
}

bool
PosMapBlockCache::contains(BlockId pm_block) const
{
    return index_.get(pm_block.value()) != FlatIndex::kNone;
}

} // namespace proram
