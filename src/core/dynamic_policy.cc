#include "core/dynamic_policy.hh"

#include <algorithm>

#include "core/super_block.hh"
#include "obs/trace.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

DynamicSuperBlockPolicy::DynamicSuperBlockPolicy(
    UnifiedOram &oram, const LlcProbe &llc,
    const DynamicPolicyConfig &cfg)
    : SuperBlockPolicy(oram, llc), cfg_(cfg)
{
    fatal_if(!isPowerOf2(cfg.maxSbSize),
             "max super block size must be 2^k");
    fatal_if((static_cast<std::uint64_t>(cfg.maxSbSize)
              << cfg.strideLog) > oram.space().fanout(),
             "max super block span (size << strideLog) exceeds "
             "pos-map fanout (Secs. 4.1, 6.2)");
    fatal_if(cfg.cMerge <= 0.0 || cfg.cBreak <= 0.0,
             "Eq. 1 coefficients must be positive");
}

std::uint32_t
DynamicSuperBlockPolicy::counterMax(std::uint32_t bits)
{
    return (1u << std::min(bits, 16u)) - 1;
}

std::uint32_t
DynamicSuperBlockPolicy::initialBreakCounter(std::uint32_t m)
{
    return std::min(2 * m, counterMax(m));
}

std::uint32_t
DynamicSuperBlockPolicy::readMergeCounter(BlockId pair_base,
                                          std::uint32_t n) const
{
    // The counter is the concatenation of the 2n members' merge bits
    // (Fig. 4); members are stride-spaced under the Sec. 6.2 extension.
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < 2 * n; ++i) {
        const BlockId m = sbMemberAt(pair_base, i, cfg_.strideLog);
        v <<= 1;
        v |= oram_.posMap().entry(m).mergeBit ? 1u : 0u;
    }
    return v;
}

void
DynamicSuperBlockPolicy::writeMergeCounter(BlockId pair_base,
                                           std::uint32_t n,
                                           std::uint32_t value)
{
    const std::uint32_t bits = 2 * n;
    for (std::uint32_t i = 0; i < bits; ++i) {
        const BlockId m = sbMemberAt(pair_base, i, cfg_.strideLog);
        const std::uint32_t bit = (value >> (bits - 1 - i)) & 1u;
        oram_.posMap().entry(m).mergeBit = bit != 0;
    }
}

std::uint32_t
DynamicSuperBlockPolicy::readBreakCounter(BlockId base,
                                          std::uint32_t m) const
{
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
        const BlockId b = sbMemberAt(base, i, cfg_.strideLog);
        v <<= 1;
        v |= oram_.posMap().entry(b).breakBit ? 1u : 0u;
    }
    return v;
}

void
DynamicSuperBlockPolicy::writeBreakCounter(BlockId base, std::uint32_t m,
                                           std::uint32_t value)
{
    for (std::uint32_t i = 0; i < m; ++i) {
        const BlockId b = sbMemberAt(base, i, cfg_.strideLog);
        const std::uint32_t bit = (value >> (m - 1 - i)) & 1u;
        oram_.posMap().entry(b).breakBit = bit != 0;
    }
}

double
DynamicSuperBlockPolicy::adaptiveThreshold(std::uint32_t sbsize,
                                           double c) const
{
    // Eq. 1: threshold = C * sbsize^2 * eviction_rate * access_rate
    //                    / prefetch_hit_rate
    const double phr =
        std::max(prefetchHitRate_, cfg_.minPrefetchHitRate);
    return c * static_cast<double>(sbsize) * sbsize * evictionRate_ *
           accessRate_ / phr;
}

double
DynamicSuperBlockPolicy::mergeThreshold(std::uint32_t n) const
{
    if (cfg_.mergeThreshold ==
        DynamicPolicyConfig::MergeThreshold::Static) {
        // Sec. 4.4.1: merge when the counter reaches 2n.
        return 2.0 * n;
    }
    // Sec. 4.4.2 with hysteresis: threshold_merge = threshold + sbsize.
    return adaptiveThreshold(n, cfg_.cMerge) + n;
}

double
DynamicSuperBlockPolicy::breakThreshold(std::uint32_t m) const
{
    if (cfg_.breakMode == DynamicPolicyConfig::BreakMode::Static) {
        // Sec. 4.4.1: break when the counter bottoms out at 0,
        // i.e. falls below 1.
        return 1.0;
    }
    // Adaptive (Eq. 1), floored at the static "bottomed-out" value:
    // when the eviction rate is ~0 the equation yields ~0, which
    // would never fire even though every recent prefetch missed.
    return std::max(adaptiveThreshold(m, cfg_.cBreak), 1.0);
}

void
DynamicSuperBlockPolicy::onEpoch(double eviction_rate,
                                 double access_rate)
{
    evictionRate_ = eviction_rate;
    accessRate_ = access_rate;
    const std::uint64_t hits = stats_.prefetchHits - epochHitsBase_;
    const std::uint64_t misses =
        stats_.prefetchMisses - epochMissesBase_;
    prefetchHitRate_ =
        (hits + misses) == 0
            ? 1.0
            : static_cast<double>(hits) / (hits + misses);
    epochHitsBase_ = stats_.prefetchHits;
    epochMissesBase_ = stats_.prefetchMisses;
}

bool
DynamicSuperBlockPolicy::neighborCoherent(BlockId nbase,
                                          std::uint32_t n) const
{
    const PosEntry &first = oram_.posMap().entry(nbase);
    if (first.sbSize() != n ||
        (n > 1 && first.sbStrideLog != cfg_.strideLog)) {
        return false;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        const PosEntry &e =
            oram_.posMap().entry(sbMemberAt(nbase, i, cfg_.strideLog));
        if (e.sbSize() != n || e.leaf != first.leaf)
            return false;
        if (n > 1 && e.sbStrideLog != cfg_.strideLog)
            return false;
    }
    return true;
}

bool
DynamicSuperBlockPolicy::applyBreakScheme(
    BlockId requested, BlockId &base, std::uint32_t &n,
    const std::vector<BlockId> &members, const std::vector<bool> &in_llc)
{
    // Reconstruct the break counter and fold in the prefetch verdicts
    // of the members coming from ORAM (Algorithm 2).
    const std::uint32_t max = counterMax(n);
    int counter = static_cast<int>(readBreakCounter(base, n));
    counter += consumePrefetchBits(members, in_llc);
    counter = std::clamp(counter, 0, static_cast<int>(max));

    if (cfg_.breakMode == DynamicPolicyConfig::BreakMode::None ||
        static_cast<double>(counter) >= breakThreshold(n)) {
        writeBreakCounter(base, n, static_cast<std::uint32_t>(counter));
        return false;
    }

    // Break B = (B1, B2) at the midpoint; the requested half returns
    // to the LLC, the other half is written back to the tree. Both
    // halves get fresh independent leaves (security argument Sec. 4.6).
    const std::uint32_t half = n / 2;
    const std::uint32_t stride = cfg_.strideLog;
    const BlockId req_half = sbBaseStrided(requested, half, stride);
    const BlockId other_half = req_half == base
                                   ? base +
                                         (static_cast<std::uint64_t>(
                                              half)
                                          << stride)
                                   : base;

    const Leaf leaf_req = oram_.engine().randomLeaf();
    const Leaf leaf_other = oram_.engine().randomLeaf();
    const auto half_log = static_cast<std::uint8_t>(log2Floor(half));
    // Remaps go through setLeaf so members sitting in the stash (this
    // very access just read them in) see their cached leaf refreshed
    // before the write-back's eviction scan runs.
    for (std::uint32_t i = 0; i < half; ++i) {
        const std::uint64_t off = static_cast<std::uint64_t>(i)
                                  << stride;
        oram_.posMap().setLeaf(req_half + off, leaf_req);
        PosEntry &a = oram_.posMap().entry(req_half + off);
        a.sbSizeLog = half_log;
        a.sbStrideLog = half > 1 ? static_cast<std::uint8_t>(stride) : 0;
        oram_.posMap().setLeaf(other_half + off, leaf_other);
        PosEntry &b = oram_.posMap().entry(other_half + off);
        b.sbSizeLog = half_log;
        b.sbStrideLog = half > 1 ? static_cast<std::uint8_t>(stride) : 0;
    }
    // Counters restart for the new geometry: the members' merge bits
    // are cleared (so the halves do not instantly re-merge) and the
    // halves' break counters re-initialized. writeMergeCounter over
    // the half-pair at `base` covers exactly the n member blocks.
    writeMergeCounter(base, half, 0);
    writeBreakCounter(req_half, half, initialBreakCounter(half));
    writeBreakCounter(other_half, half, initialBreakCounter(half));
    ++stats_.breaks;
    PRORAM_TRACE_EVENT("policy", "break", "size", half);

    base = req_half;
    n = half;
    return true;
}

void
DynamicSuperBlockPolicy::applyMergeScheme(BlockId base, std::uint32_t n)
{
    if (n >= cfg_.maxSbSize)
        return;
    const std::uint32_t stride = cfg_.strideLog;
    if (!mergeWithinBoundsStrided(base, n, stride,
                                  oram_.space().numDataBlocks(),
                                  oram_.space().fanout()))
        return;

    const BlockId nbase = sbNeighborBaseStrided(base, n, stride);
    const BlockId pair_base = sbBaseStrided(base, 2 * n, stride);
    const std::uint32_t max = counterMax(2 * n);
    std::uint32_t counter = readMergeCounter(pair_base, n);

    bool all_in_llc = true;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!llc_.probe(sbMemberAt(nbase, i, stride))) {
            all_in_llc = false;
            break;
        }
    }

    if (!all_in_llc) {
        if (counter > 0)
            --counter;
        writeMergeCounter(pair_base, n, counter);
        return;
    }

    if (counter < max)
        ++counter;
    if (static_cast<double>(counter) < mergeThreshold(n) ||
        !neighborCoherent(nbase, n)) {
        writeMergeCounter(pair_base, n, counter);
        return;
    }

    // Merge: B adopts B''s path (its members are in the stash right
    // now, so the invariant holds trivially); the pair becomes one
    // super block of size 2n with fresh counters.
    const Leaf nleaf = oram_.posMap().leafOf(nbase);
    const auto merged_log = static_cast<std::uint8_t>(log2Floor(2 * n));
    for (std::uint32_t i = 0; i < n; ++i)
        oram_.posMap().setLeaf(sbMemberAt(base, i, stride), nleaf);
    for (std::uint32_t i = 0; i < 2 * n; ++i) {
        PosEntry &e =
            oram_.posMap().entry(sbMemberAt(pair_base, i, stride));
        e.sbSizeLog = merged_log;
        e.sbStrideLog = static_cast<std::uint8_t>(stride);
    }
    writeMergeCounter(pair_base, n, 0);
    writeBreakCounter(pair_base, 2 * n, initialBreakCounter(2 * n));
    ++stats_.merges;
    PRORAM_TRACE_EVENT("policy", "merge", "size", 2 * n);
}

AccessDecision
DynamicSuperBlockPolicy::onDataAccess(BlockId requested,
                                      bool is_writeback)
{
    std::uint32_t n = oram_.posMap().entry(requested).sbSize();
    BlockId base = sbBaseStrided(requested, n, cfg_.strideLog);
    // Scratch members keep the per-access hot path allocation-free
    // once warmed up (n is small, bounded by maxSbSize).
    std::vector<BlockId> &members = membersScratch_;
    members.clear();
    for (std::uint32_t i = 0; i < n; ++i)
        members.push_back(sbMemberAt(base, i, cfg_.strideLog));

    if (is_writeback) {
        // Victim write-back: remap-only; no learning, no prefetching.
        remapGroup(members);
        return {};
    }

    std::vector<bool> &in_llc = inLlcScratch_;
    in_llc.assign(members.size(), false);
    for (std::size_t i = 0; i < members.size(); ++i)
        in_llc[i] = llc_.probe(members[i]);

    bool broke = false;
    if (n > 1) {
        broke = applyBreakScheme(requested, base, n, members, in_llc);
        if (broke) {
            members.clear();
            for (std::uint32_t i = 0; i < n; ++i)
                members.push_back(sbMemberAt(base, i, cfg_.strideLog));
            in_llc.assign(members.size(), false);
            for (std::size_t i = 0; i < members.size(); ++i)
                in_llc[i] = llc_.probe(members[i]);
        }
    } else {
        // Singleton: still settle the block's own prefetch verdict.
        consumePrefetchBits(members, in_llc);
    }

    if (!broke)
        remapGroup(members);

    AccessDecision decision;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const BlockId m = members[i];
        if (m == requested || in_llc[i])
            continue;
        markPrefetched(m);
        decision.prefetches.push_back(m);
    }

    // Merging and breaking on the same access would thrash; the +n
    // hysteresis term plus this guard prevent it (Sec. 4.4.2).
    if (!broke)
        applyMergeScheme(base, n);
    return decision;
}

} // namespace proram
