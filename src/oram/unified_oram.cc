#include "oram/unified_oram.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

UnifiedOram::UnifiedOram(const OramConfig &cfg)
    : cfg_(cfg), space_(cfg),
      posMap_(space_.numTotalBlocks(),
              static_cast<Leaf>(1ULL << cfg.levels())),
      oram_(makeOramScheme(cfg_, posMap_)), plb_(cfg.plbEntries)
{
    cfg_.validate();
}

void
UnifiedOram::initialize(std::uint32_t static_sb_size)
{
    panic_if(initialized_, "UnifiedOram initialized twice");
    fatal_if(static_sb_size == 0 || !isPowerOf2(static_sb_size),
             "static super block size must be a power of two");
    fatal_if(static_sb_size > space_.fanout(),
             "super block cannot span position-map blocks (Sec. 4.1)");

    const std::uint64_t total = space_.numTotalBlocks();
    const std::uint64_t num_data = space_.numDataBlocks();
    const std::uint8_t sb_log =
        static_cast<std::uint8_t>(log2Floor(static_sb_size));

    // Direct PosEntry::leaf writes are safe only here: the stash is
    // empty until placeInitial below, so there are no cached leaves to
    // keep coherent yet. Everywhere else leaves go through setLeaf().
    for (BlockId id{0}; id.value() < total; ++id) {
        PosEntry &e = posMap_.entry(id);
        if (id.value() < num_data && static_sb_size > 1) {
            // Super block members share the leaf of their base block.
            const BlockId base{alignDown(id.value(), static_sb_size)};
            e.leaf = (id == base) ? oram_->randomLeaf()
                                  : posMap_.leafOf(base);
            e.sbSizeLog = sb_log;
        } else {
            e.leaf = oram_->randomLeaf();
            e.sbSizeLog = 0;
        }
    }
    if (cfg_.lazyInit) {
        // Leaves are assigned eagerly (the position map is flat and
        // O(total) regardless) but nothing is placed: every block is
        // virtual until ensureCreated() materializes it on first
        // access, so an untouched subtree never costs arena chunks.
        created_.assign((total + 63) / 64, 0);
    } else {
        for (BlockId id{0}; id.value() < total; ++id)
            oram_->placeInitial(id, 0);
    }
    initialized_ = true;
}

bool
UnifiedOram::ensureCreated(BlockId id)
{
    if (!cfg_.lazyInit || isCreated(id))
        return false;
    // First physical appearance: payload 0 under the current mapping,
    // exactly what eager initialization would have left on this
    // block's path. The stash insert is the creation point; the
    // normal write-back machinery moves it into the tree.
    oram_->stash().insert(id, 0, posMap_.leafOf(id));
    created_[id.value() >> 6] |= 1ULL << (id.value() & 63);
    return true;
}

bool
UnifiedOram::posMapCached(BlockId id) const
{
    const BlockId pm = space_.posMapBlockOf(id);
    return pm == kInvalidBlock || plb_.contains(pm);
}

void
UnifiedOram::fetchPosMapBlock(BlockId pm_block)
{
    PRORAM_TRACE_SCOPE_ARG("posmap", "fetch", "block", pm_block);
    const Leaf leaf = posMap_.leafOf(pm_block);
    if (posMapObserver_)
        posMapObserver_(leaf);
    oram_->readPath(leaf);
    ensureCreated(pm_block);
    panic_if(!oram_->stash().contains(pm_block), "pos-map block ",
             pm_block, " missing from path ", leaf);
    posMap_.setLeaf(pm_block, oram_->randomLeaf());
    oram_->writePath(leaf);
    plb_.insert(pm_block);
}

PosMapWalk
UnifiedOram::posMapWalk(BlockId id)
{
    panic_if(!initialized_, "posMapWalk before initialize()");
    PosMapWalk walk;

    // Collect the chain of pos-map blocks covering `id`, innermost
    // (direct parent) first, ending when the table is on-chip. The
    // chain scratch is reused across calls (allocation-free once
    // warmed up; its length is the recursion depth).
    std::vector<BlockId> &chain = chainScratch_;
    chain.clear();
    BlockId cursor = id;
    while (true) {
        const BlockId pm = space_.posMapBlockOf(cursor);
        if (pm == kInvalidBlock)
            break;
        chain.push_back(pm);
        cursor = pm;
    }

    // Find the deepest cached level; everything below it must be
    // fetched, outermost first (each fetch needs its parent's leaf,
    // which the previous fetch just brought on-chip).
    std::size_t first_cached = chain.size();
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (plb_.lookup(chain[i])) {
            first_cached = i;
            PRORAM_TRACE_EVENT("plb", "hit", "level", i);
            break;
        }
        PRORAM_TRACE_EVENT("plb", "miss", "level", i);
    }
    for (std::size_t i = first_cached; i-- > 0;) {
        fetchPosMapBlock(chain[i]);
        walk.fetched.push_back(chain[i]);
    }
    PRORAM_TRACE_EVENT("posmap", "walk", "depth",
                       walk.fetched.size());
    return walk;
}

} // namespace proram
