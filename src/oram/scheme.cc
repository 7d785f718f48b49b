#include "oram/scheme.hh"

#include <bit>

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
      stash_(cfg.stashCapacity, pos_map.size(),
             static_cast<std::size_t>(tree_.levels() + 1) * tree_.z()),
      rng_(cfg.seed ^ 0x0aa77aa55aa33aa1ULL),
      pathSlots_(static_cast<std::size_t>(tree_.levels() + 1) * tree_.z())
{
    const std::uint32_t groups = tree_.levels() + 1;
    groupBase_.resize(groups + 1);
    for (std::uint32_t g = 0; g <= groups; ++g)
        groupBase_[g] = tree_.z() * g * (g + 1) / 2 + g;
    groupMembers_.resize(groupBase_[groups]);
    groupCount_.resize(groups);
    groupTaken_.resize(groups);
    groupStack_.resize(groups);
    placedSlots_.resize(pathSlots_);

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

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::evictOnto(Leaf leaf)
{
    // Greedy eviction, bucket by bucket from the leaf upward: each
    // bucket takes blocks from a pool that holds every stash block
    // whose deepest eligible level (BinaryTree::commonLevel, the Path
    // ORAM greedy rule) is at or below it, the shallowest level group
    // first and, within a group, the newest block first - the LIFO
    // order of pushing each level's blocks, in insertion order, onto
    // one stack as the walk reaches that level. A block of level g
    // can only land in the g + 1 buckets at levels 0..g, so at most
    // (g + 1) * Z blocks of group g are ever placed: the newest ones.
    // One backward pass over the stash's leaf lane therefore gathers
    // exactly the blocks that can be placed, in placement order, into
    // fixed per-group regions, and the rest are never touched again.
    // Placed blocks are released by slot (no lookup by id) in one
    // bulk pass after the fill and the stash is compacted once, so
    // slot numbers stay valid throughout the pass.
    const std::uint32_t levels = tree_.levels();
    const std::size_t slots = stash_.slotCount();
    tree_.checkLeaf(leaf);
    panic_if(!stash_.compacted(), "eviction onto a stash with ",
             slots - stash_.size(), " dead slots");

    const BlockId *ids = stash_.idLane();
    const Leaf *leaves = stash_.leafLane();
    const std::uint64_t *payloads = stash_.dataLane();
    const std::uint32_t *base = groupBase_.data();
    std::uint32_t *members = groupMembers_.data();
    std::uint32_t *count = groupCount_.data();
    std::uint32_t *taken = groupTaken_.data();
    {
        PRORAM_TRACE_SCOPE_ARG("evict", "classify", "slots", slots);
        for (std::uint32_t g = 0; g <= levels; ++g)
            count[g] = 0;
        // Every slot is live (compacted). Each block is written into
        // its group's region unconditionally; the count advances only
        // while the region has room, so a full group's surplus lands
        // in the slack entry and is overwritten.
        for (std::size_t i = slots; i-- > 0;) {
            panic_if(leaves[i] == kInvalidLeaf, "stash block ", ids[i],
                     " has no leaf");
            const std::uint32_t g =
                tree_.commonLevel(leaves[i], leaf).value();
            const std::uint32_t at = base[g] + count[g];
            members[at] = static_cast<std::uint32_t>(i);
            count[g] += at + 1 < base[g + 1];
        }
    }

    PRORAM_TRACE_SCOPE_ARG("evict", "fill", "leaf", leaf);
    std::uint32_t *stack = groupStack_.data();
    std::uint32_t *placed = placedSlots_.data();
    std::uint32_t depth = 0;
    std::uint32_t pooled = 0;
    std::uint32_t released = 0;
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        stack[depth] = l;
        taken[l] = 0;
        depth += count[l] != 0;
        pooled += count[l];
        if (pooled == 0)
            continue;
        pooled -= tree_.fillBucket(
            tree_.pathNode(leaf, l), pooled,
            [&](SlotHeader &header, std::uint64_t &data) {
                const std::uint32_t g = stack[depth - 1];
                const std::uint32_t slot = members[base[g] + taken[g]++];
                depth -= taken[g] == count[g];
                header = SlotHeader{ids[slot], leaves[slot]};
                data = payloads[slot];
                placed[released++] = slot;
            });
    }
    stash_.releaseSlots(placed, released);
    stash_.compact();
    stash_.sampleOccupancy();
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::drainPath(Leaf leaf)
{
    tree_.checkLeaf(leaf);
    // One pass over the free-count lane marks the levels whose bucket
    // holds blocks; only those are drained, lowest level first. An
    // empty bucket's header and payload lines are never touched, and
    // the walk branches once per drained bucket instead of once per
    // bucket on its occupancy.
    std::uint64_t occupied = 0;
    for (std::uint32_t l = 0; l <= tree_.levels(); ++l)
        occupied |= std::uint64_t{tree_.freeSlots(tree_.pathNode(leaf, l)) !=
                                  tree_.z()}
                    << l;
    const Stash::Tail window = stash_.openTail(pathSlots_);
    std::size_t moved = 0;
    for (; occupied != 0; occupied &= occupied - 1) {
        const auto l = static_cast<std::uint32_t>(std::countr_zero(occupied));
        moved += tree_.drainBucket(tree_.pathNode(leaf, l), window, moved);
    }
    stash_.commitTail(moved);
}

void
OramScheme::placeInitial(BlockId id, std::uint64_t data)
{
    const Leaf leaf = posMap_.leafOf(id);
    panic_if(leaf == kInvalidLeaf, "placeInitial before leaf assignment");
    tree_.checkLeaf(leaf);
    const SlotHeader placed{id, leaf};
    for (std::uint32_t l = tree_.levels() + 1; l-- > 0;) {
        if (tree_.fillBucket(tree_.pathNode(leaf, l), 1,
                             [&](SlotHeader &header, std::uint64_t &d) {
                                 header = placed;
                                 d = data;
                             }) != 0)
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
