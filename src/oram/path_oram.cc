#include "oram/path_oram.hh"

#include "obs/trace.hh"
#include "util/annotations.hh"

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
    drainPath(leaf);
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
