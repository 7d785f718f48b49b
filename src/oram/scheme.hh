/**
 * @file
 * The abstract ORAM scheme interface: the tree-protocol contract the
 * controller and the policy layer are written against. One logical
 * access is position-map walk (owned by UnifiedOram), readPath, the
 * policy's remaps, then writePath; every concrete protocol (Path
 * ORAM, Ring ORAM) implements the two path halves over the shared
 * tree, stash, position map and RNG owned here. Nothing outside
 * src/oram/ may name a concrete scheme; callers select one via
 * OramConfig::scheme / $PRORAM_SCHEME and talk to this interface.
 */

#ifndef PRORAM_ORAM_SCHEME_HH
#define PRORAM_ORAM_SCHEME_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "oram/config.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{

/** Protocol-specific traffic counters (all zero for Path ORAM, whose
 *  bucket traffic is fully described by pathReads()). Monotonic;
 *  sampled by the controller's stat group. */
struct SchemeCounters
{
    /** Modeled one-block bucket reads (Ring: one per path bucket). */
    std::uint64_t bucketReads = 0;
    /** Bucket reads that returned no block of interest (dummy reads). */
    std::uint64_t dummyReads = 0;
    /** Buckets early-reshuffled after S reads since the last shuffle. */
    std::uint64_t earlyReshuffles = 0;
    /** Deterministic reverse-lexicographic eviction passes. */
    std::uint64_t scheduledEvictions = 0;
};

/**
 * Binary tree + stash + remap machinery behind a protocol-agnostic
 * interface. The position map is owned by the caller (the unified
 * front end) because recursion and the super-block metadata live
 * there; tree, stash and RNG are owned here and shared by every
 * concrete scheme.
 *
 * Contract the controller may assume (DESIGN.md Sec. 14):
 *  - After readPath(leafOf(b)) returns, every block currently mapped
 *    to that leaf - in particular b and its whole super block - is
 *    stash-resident.
 *  - The policy may remap any stash-resident block via
 *    PositionMap::setLeaf between readPath and writePath; schemes must
 *    not cache block->leaf assignments across that boundary. Nothing
 *    may remap a tree-resident block: its leaf also lives in its slot
 *    header, which readPath trusts (checkIntegrity verifies the two
 *    agree).
 *  - writePath(leaf) restores the scheme's tree invariant ("a block
 *    is on its mapped path or in the stash"); it need not write the
 *    demanded path (Ring ORAM evicts on its own schedule).
 *  - dummyAccess() makes eviction progress (stash occupancy cannot
 *    increase) and returns the public leaf it touched.
 */
class OramScheme
{
  public:
    OramScheme(const OramConfig &cfg, PositionMap &pos_map);
    virtual ~OramScheme();

    OramScheme(const OramScheme &) = delete;
    OramScheme &operator=(const OramScheme &) = delete;

    /** Printable protocol name ("path" / "ring"). */
    virtual const char *name() const = 0;

    /** Bring every block of interest on path @p leaf into the stash
     *  (Path: all real blocks on the path; Ring: the blocks mapped to
     *  @p leaf, one modeled bucket read each). */
    virtual void readPath(Leaf leaf) = 0;

    /**
     * Write-back half of one access. Path ORAM evicts onto @p leaf;
     * Ring ORAM counts the access and runs its scheduled
     * reverse-lexicographic eviction every A-th call (@p leaf names
     * the just-read path for symmetry but the eviction path is the
     * scheme's own choice).
     */
    virtual void writePath(Leaf leaf) = 0;

    /**
     * Background eviction (Sec. 2.4): one eviction-progress access
     * that remaps nothing. Stash occupancy cannot increase.
     * @return the public leaf that was accessed.
     */
    virtual Leaf dummyAccess() = 0;

    /** Protocol-specific traffic counters (zeros for Path ORAM). */
    virtual SchemeCounters schemeCounters() const { return {}; }

    /** @name Geometry (delegates to the shared tree). @{ */
    TreeIdx nodeOnPath(Leaf leaf, Level level) const
    {
        return tree_.nodeOnPath(leaf, level);
    }
    std::uint32_t levels() const { return tree_.levels(); }
    std::uint32_t bucketSlots() const { return tree_.z(); }
    std::uint64_t numLeaves() const { return tree_.numLeaves(); }
    /** @} */

    /** Fresh uniformly random leaf (step 4 remap target). */
    Leaf randomLeaf();

    /**
     * Place a block into the deepest free bucket on its mapped path
     * (PositionMap::leafOf, stored in the slot header), falling back
     * to the stash. Used for initialization only.
     */
    void placeInitial(BlockId id, std::uint64_t data);

    /**
     * Observe the (public) leaf of every *scheduled* eviction pass,
     * in schedule order, just before the pass runs. Pure observation
     * hook for the obliviousness auditor's deterministic-eviction
     * accounting (Ring ORAM); Path ORAM never fires it.
     */
    void setEvictionObserver(std::function<void(Leaf)> fn)
    {
        evictionObserver_ = std::move(fn);
    }

    BinaryTree &tree() { return tree_; }
    const BinaryTree &tree() const { return tree_; }
    Stash &stash() { return stash_; }
    const Stash &stash() const { return stash_; }
    PositionMap &posMap() { return posMap_; }

    std::uint64_t pathReads() const { return pathReads_; }

  protected:
    /**
     * Greedy eviction of the stash onto path @p leaf (paper Sec. 2.2
     * step 5): every block lands in the deepest bucket it shares with
     * @p leaf (BinaryTree::commonLevel of its cached leaf) that still
     * has room, buckets filled leaf upward; blocks that fit nowhere
     * stay in the stash. Each placed block's slot header takes the
     * stash's cached leaf. Path ORAM evicts onto the just-read path,
     * Ring ORAM onto its scheduled path.
     */
    void evictOnto(Leaf leaf);

    /**
     * Move every real block on path @p leaf into the stash, buckets
     * root to leaf and slots in order, each under its slot header's
     * leaf (Path ORAM's readPath and Ring ORAM's scheduled-eviction
     * read): whole buckets are drained into one stash write window
     * and committed at once, which panics on a block duplicated
     * between tree and stash. Counts nothing; callers bill the path
     * read.
     */
    void drainPath(Leaf leaf);

    /** Slots on one path, (L + 1) * Z: the stash write window a path
     *  read opens. */
    std::size_t pathSlots() const { return pathSlots_; }

    OramConfig cfg_;
    PositionMap &posMap_;
    BinaryTree tree_;
    Stash stash_;
    Rng rng_;
    std::uint64_t pathReads_ = 0;
    /** Auditor hook; empty (and never called) unless auditing. */
    std::function<void(Leaf)> evictionObserver_;

  private:
    std::size_t pathSlots_;
    // evictOnto scratch, sized from the tree geometry at construction
    // and independent of the stash size, so no access allocates.
    /** Level group g's member region is
     *  groupMembers_[groupBase_[g], groupBase_[g + 1]): (g + 1) * Z
     *  slots, as many blocks as the buckets at levels 0..g can take,
     *  plus one slack entry the classify pass writes a surplus member
     *  into without advancing. */
    std::vector<std::uint32_t> groupBase_;
    std::vector<std::uint32_t> groupMembers_;
    /** Members gathered / already placed per level group. */
    std::vector<std::uint32_t> groupCount_;
    std::vector<std::uint32_t> groupTaken_;
    /** The pool: levels of the non-empty groups still waiting for a
     *  bucket, deepest at the bottom. */
    std::vector<std::uint32_t> groupStack_;
    /** Stash slots placed by the current pass, released in bulk after
     *  the fill (at most one per path slot). */
    std::vector<std::uint32_t> placedSlots_;
};

/** Build the scheme selected by @p cfg (after resolvedScheme()). */
std::unique_ptr<OramScheme> makeOramScheme(const OramConfig &cfg,
                                           PositionMap &pos_map);

} // namespace proram

#endif // PRORAM_ORAM_SCHEME_HH
