/**
 * @file
 * Unified (recursive) ORAM front end, after Freecursive ORAM
 * (Fletcher et al., ASPLOS'15), the paper's baseline (Sec. 2.3):
 * position-map blocks live in the same binary tree as data blocks and
 * are cached on-chip in a PLB; a PLB miss costs extra path accesses.
 */

#ifndef PRORAM_ORAM_UNIFIED_ORAM_HH
#define PRORAM_ORAM_UNIFIED_ORAM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "oram/position_map.hh"
#include "oram/scheme.hh"

namespace proram
{

/** Outcome of resolving a block's leaf through the recursion. */
struct PosMapWalk
{
    /** Position-map blocks that had to be path-accessed (PLB misses),
     *  outermost (closest to on-chip) first. */
    std::vector<BlockId> fetched;

    std::uint64_t pathAccesses() const { return fetched.size(); }
};

/**
 * Owns the functional state: block-id layout, flat position map, the
 * tree engine (any OramScheme - Path or Ring, per OramConfig::scheme)
 * and PLB. The ORAM controller (core/) drives it.
 */
class UnifiedOram
{
  public:
    explicit UnifiedOram(const OramConfig &cfg);

    /**
     * Initialize: assign every block (data + pos-map) an independent
     * random leaf and place it in the tree. If @p static_sb_size > 1,
     * data blocks are pre-merged into aligned super blocks of that
     * size (static super block scheme initialization, Sec. 3.3).
     */
    void initialize(std::uint32_t static_sb_size = 1);

    /**
     * Bring the position-map block chain for @p id on-chip,
     * path-accessing (and remapping) every PLB-missing level.
     */
    PosMapWalk posMapWalk(BlockId id);

    /** @return true if @p id's pos-map block is PLB-resident (or
     *  on-chip), without updating any state. Testing/diagnostics. */
    bool posMapCached(BlockId id) const;

    /**
     * Observe the (public) leaf of every position-map path access,
     * just before the path is read. Pure observation hook for the
     * obliviousness auditor; must not touch ORAM state.
     */
    void setPosMapObserver(std::function<void(Leaf)> fn)
    {
        posMapObserver_ = std::move(fn);
    }

    /** @name Lazy initialization (OramConfig::lazyInit).
     *
     * In lazy mode initialize() assigns leaves but places nothing:
     * every block is "virtually resident" with payload 0 until its
     * first access, when ensureCreated() inserts it into the stash
     * (from where the normal write-back path materializes it). The
     * created bitset records which blocks exist physically; the
     * integrity checker skips the exactly-once test for uncreated
     * blocks. @{ */
    bool lazyInit() const { return cfg_.lazyInit; }

    /** True when @p id has a physical copy (always, in eager mode). */
    bool isCreated(BlockId id) const
    {
        if (!cfg_.lazyInit)
            return true;
        return (created_[id.value() >> 6] >>
                (id.value() & 63)) & 1;
    }

    /**
     * Create @p id in the stash (payload 0, current leaf) if lazy
     * initialization left it virtual. @return true if created now.
     */
    bool ensureCreated(BlockId id);
    /** @} */

    const OramConfig &config() const { return cfg_; }
    const BlockSpace &space() const { return space_; }
    PositionMap &posMap() { return posMap_; }
    const PositionMap &posMap() const { return posMap_; }
    OramScheme &engine() { return *oram_; }
    const OramScheme &engine() const { return *oram_; }
    PosMapBlockCache &plb() { return plb_; }
    const PosMapBlockCache &plb() const { return plb_; }

  private:
    /** Path-access one pos-map block: read, remap, write back. */
    void fetchPosMapBlock(BlockId pm_block);

    OramConfig cfg_;
    BlockSpace space_;
    PositionMap posMap_;
    std::unique_ptr<OramScheme> oram_;
    PosMapBlockCache plb_;
    bool initialized_ = false;
    /** Auditor hook; empty (and never called) unless auditing. */
    std::function<void(Leaf)> posMapObserver_;
    /** posMapWalk scratch (no allocation per walk once warmed up). */
    std::vector<BlockId> chainScratch_;
    /** Lazy mode: bit per block id, set once the block physically
     *  exists (stash or tree). Empty in eager mode. */
    std::vector<std::uint64_t> created_;
};

} // namespace proram

#endif // PRORAM_ORAM_UNIFIED_ORAM_HH
