#include "oram/path_oram.hh"

#include "obs/trace.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

PathOram::PathOram(const OramConfig &cfg, PositionMap &pos_map)
    : OramScheme(cfg, pos_map)
{
}

PRORAM_OBLIVIOUS PRORAM_HOT void
PathOram::readPath(Leaf leaf)
{
    PRORAM_TRACE_SCOPE_ARG("oram", "readPath", "leaf", leaf);
    ++pathReads_;
    const std::uint32_t z = tree_.z();
    for (Level level{0}; level <= tree_.leafLevel(); ++level) {
        const TreeIdx node = tree_.nodeOnPath(leaf, level);
        if (tree_.occupancy(node) == 0)
            continue;
        for (std::uint32_t i = 0; i < z; ++i) {
            const SlotHeader h = tree_.slotHeader(node, i);
            if (h.isDummy())
                continue;
            const BlockId id = h.blockId();
            const bool fresh = stash_.insert(id, tree_.slotData(node, i),
                                             h.leafLabel());
            panic_if(!fresh, "block ", id,
                     " duplicated between tree and stash");
            tree_.clearSlot(node, i);
        }
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
PathOram::writePath(Leaf leaf)
{
    PRORAM_TRACE_SCOPE_ARG("oram", "writePath", "leaf", leaf);
    evictOnto(leaf);
}

PRORAM_OBLIVIOUS Leaf
PathOram::dummyAccess()
{
    const Leaf leaf = randomLeaf();
    PRORAM_TRACE_SCOPE_ARG("dummy", "bgEvict", "leaf", leaf);
    readPath(leaf);
    writePath(leaf);
    return leaf;
}

} // namespace proram
