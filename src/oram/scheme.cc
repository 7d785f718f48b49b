#include "oram/scheme.hh"

#include "obs/trace.hh"
#include "oram/path_oram.hh"
#include "oram/ring_oram.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

OramScheme::OramScheme(const OramConfig &cfg, PositionMap &pos_map)
    : cfg_(cfg), posMap_(pos_map),
      tree_(cfg.levels(), cfg.z, cfg.arena),
      stash_(cfg.stashCapacity, pos_map.size()),
      rng_(cfg.seed ^ 0x0aa77aa55aa33aa1ULL)
{
    // Pre-size the eviction scratch from the tree geometry so the
    // first accesses after construction are allocation-free too. The
    // slot bound matches the stash lanes' reserve plus one path's
    // worth of readPath growth; reserveScratch() covers the (rare)
    // overshoot.
    const std::size_t slot_bound =
        static_cast<std::size_t>(cfg.stashCapacity) * 2 +
        static_cast<std::size_t>(tree_.levels() + 1) * tree_.z();
    reserveScratch(slot_bound);
    const std::size_t level_slots = tree_.levels() + 2;
    histScratch_.resize(level_slots, 0);
    levelStartScratch_.resize(level_slots, 0);
    levelCursorScratch_.resize(level_slots, 0);

    // Every leaf remap must reach stash-resident entries' cached
    // leaves; routing through the position map's single write point
    // covers all remap sites (eviction, merge, break) at once.
    posMap_.attachLeafCache(&stash_);
}

OramScheme::~OramScheme()
{
    posMap_.attachLeafCache(nullptr);
}

PRORAM_HOT Leaf
OramScheme::randomLeaf()
{
    return Leaf{
        static_cast<std::uint32_t>(rng_.below(tree_.numLeaves()))};
}

void
OramScheme::reserveScratch(std::size_t slots)
{
    if (sortedScratch_.size() < slots)
        sortedScratch_.resize(slots);
    if (poolScratch_.capacity() < slots)
        poolScratch_.reserve(slots);
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::evictOnto(Leaf leaf)
{
    // Counting-sort eviction: classify every live stash slot's deepest
    // eligible level (BinaryTree::commonLevel, the Path ORAM greedy
    // rule) straight from the contiguous leaf lane, histogram the
    // slots per level, then stable-scatter the slot numbers into one
    // flat array grouped deepest level first. The scatter pass
    // recomputes each level (one xor and bit_width) instead of keeping
    // a per-slot level lane. Insertion order within a level is
    // preserved, so placement is a deterministic function of stash
    // insertion order. Placed blocks are released by slot (no lookup
    // by id) and the stash is compacted once, after the pass, so slot
    // numbers stay valid throughout it.
    const std::uint32_t levels = tree_.levels();
    const std::size_t slots = stash_.slotCount();
    reserveScratch(slots);

    const BlockId *ids = stash_.idLane();
    const Leaf *leaves = stash_.leafLane();
    const std::uint64_t *payloads = stash_.dataLane();
    {
        PRORAM_TRACE_SCOPE_ARG("evict", "classify", "slots", slots);
        for (std::uint32_t l = 0; l <= levels; ++l)
            histScratch_[l] = 0;
        for (std::size_t i = 0; i < slots; ++i) {
            if (ids[i] == kInvalidBlock)
                continue;
            panic_if(leaves[i] == kInvalidLeaf, "stash block ", ids[i],
                     " has no leaf");
            ++histScratch_[tree_.commonLevel(leaves[i], leaf).value()];
        }
        std::uint32_t offset = 0;
        for (std::uint32_t l = levels + 1; l-- > 0;) {
            levelStartScratch_[l] = offset;
            levelCursorScratch_[l] = offset;
            offset += histScratch_[l];
        }
        for (std::size_t i = 0; i < slots; ++i) {
            if (ids[i] == kInvalidBlock)
                continue;
            const Level l = tree_.commonLevel(leaves[i], leaf);
            sortedScratch_[levelCursorScratch_[l.value()]++] =
                static_cast<std::uint32_t>(i);
        }
    }

    // Fill buckets greedily from the leaf upward; unplaced deeper
    // blocks stay pooled and may still land closer to the root.
    PRORAM_TRACE_SCOPE_ARG("evict", "scatterFill", "leaf", leaf);
    poolScratch_.clear();
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        const std::uint32_t start = levelStartScratch_[l];
        const std::uint32_t end = start + histScratch_[l];
        for (std::uint32_t s = start; s < end; ++s) {
            // PRORAM_LINT_ALLOW(hot-alloc): capacity pre-reserved by
            // reserveScratch; push_back never grows in steady state.
            poolScratch_.push_back(sortedScratch_[s]);
        }
        const TreeIdx node = tree_.nodeOnPath(leaf, Level{l});
        while (!poolScratch_.empty() && tree_.freeSlots(node) != 0) {
            const std::uint32_t slot = poolScratch_.back();
            poolScratch_.pop_back();
            tree_.tryPlace(node, ids[slot], leaves[slot], payloads[slot]);
            stash_.releaseSlot(slot);
        }
    }
    stash_.compact();
    stash_.sampleOccupancy();
}

void
OramScheme::placeInitial(BlockId id, std::uint64_t data)
{
    const Leaf leaf = posMap_.leafOf(id);
    panic_if(leaf == kInvalidLeaf, "placeInitial before leaf assignment");
    for (std::uint32_t l = tree_.levels() + 1; l-- > 0;) {
        if (tree_.tryPlace(tree_.nodeOnPath(leaf, Level{l}), id, leaf,
                           data))
            return;
    }
    stash_.insert(id, data, leaf);
}

std::unique_ptr<OramScheme>
makeOramScheme(const OramConfig &cfg, PositionMap &pos_map)
{
    switch (cfg.resolvedScheme()) {
      case SchemeKind::Path:
        return std::make_unique<PathOram>(cfg, pos_map);
      case SchemeKind::Ring:
        return std::make_unique<RingOram>(cfg, pos_map);
      case SchemeKind::Default:
        break;
    }
    panic("unresolved ORAM scheme");
}

} // namespace proram
