// Clean fixture for oblivious_lint.py: every pattern here is either
// genuinely allowed or carries a suppression, so the linter must
// report zero diagnostics (the false-positive direction of the self
// test). Not compiled into the build; lint_selftest.py feeds it to
// the checker directly.

#include <cstdint>
#include <vector>

// Allowed: the fixture is linted under src/oram/, the one directory
// that may include concrete scheme headers.
#include "oram/ring_oram.hh"

#define PRORAM_OBLIVIOUS
#define PRORAM_HOT

namespace proram
{

struct Leaf
{
    std::uint32_t v;
    std::uint32_t value() const { return v; }
    friend bool operator==(Leaf, Leaf) { return true; }
    friend bool operator!=(Leaf, Leaf) { return false; }
};
struct BlockId
{
    std::uint64_t v;
    std::uint64_t value() const { return v; }
    friend bool operator==(BlockId, BlockId) { return true; }
    friend bool operator!=(BlockId, BlockId) { return false; }
};
struct TreeIdx
{
    std::uint64_t v;
};

inline constexpr BlockId kInvalidBlock{~0ULL};
inline constexpr Leaf kInvalidLeaf{~0U};

TreeIdx nodeOnPath(Leaf leaf, std::uint32_t level);
std::uint32_t occupancy(TreeIdx node);

// Sentinel comparisons against kInvalidBlock / kInvalidLeaf are the
// allowlisted dummy-slot checks: every fetched bucket slot takes this
// branch regardless of which block was requested.
PRORAM_OBLIVIOUS void
scanBucket(const BlockId *ids, std::size_t n, Leaf leaf)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (ids[i] == kInvalidBlock)
            continue;
        // Public control flow: the node index is TreeIdx-typed; the
        // Leaf -> TreeIdx conversion is the declassify boundary.
        const TreeIdx node = nodeOnPath(leaf, 0);
        if (occupancy(node) == 0)
            continue;
    }
}

PRORAM_OBLIVIOUS void
sentinelOnly(Leaf leaf)
{
    if (leaf == kInvalidLeaf)
        return;
}

// Growth in a hot function is allowed when suppressed with a reason.
PRORAM_HOT void
reservedAppend(std::vector<std::uint64_t> &lane, std::uint64_t v)
{
    // PRORAM_LINT_ALLOW(hot-alloc): capacity pre-reserved by caller
    lane.push_back(v);
}

// Demand materialization in a hot function: a once-per-chunk
// allocation keyed on a public tree coordinate (the sparse arena's
// first-touch path) is allowed with the argued suppression.
PRORAM_HOT std::uint64_t *
materializeChunk(std::uint64_t chunk_slots)
{
    // PRORAM_LINT_ALLOW(hot-alloc): once-per-chunk demand
    // materialization keyed on a public tree coordinate
    return new std::uint64_t[chunk_slots];
}

// A non-annotated function may do anything.
void
coldSetup(std::vector<std::uint64_t> &lane, Leaf leaf)
{
    lane.resize(64);
    if (leaf.value() > 3)
        lane.reserve(128);
}

struct BucketCache
{
    bool cached(TreeIdx node) const;
    std::uint32_t occupancy(TreeIdx node) const;
};

// An optional bucket-cache fast path: routing a bucket access through
// a cached copy branches only on a bool local derived from a null
// check and the public node index - both declassified, so the
// dispatch must lint clean.
PRORAM_OBLIVIOUS PRORAM_HOT std::uint32_t
bucketOccupancyDispatch(BucketCache *cache, Leaf leaf)
{
    const TreeIdx node = nodeOnPath(leaf, 0);
    const bool win = cache != nullptr && cache->cached(node);
    if (win)
        return cache->occupancy(node);
    return occupancy(node);
}

} // namespace proram
