/**
 * @file
 * Statistical security-property tests (paper Secs. 2.2, 4.6): the
 * observable access sequence is the sequence of path leaves; it must
 * be uniform and unlinkable regardless of the logical pattern, with
 * and without super blocks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/oram_controller.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/system_config.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
secCfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 12;
    c.stashCapacity = 100;
    c.seed = 31;
    return c;
}

HierarchyConfig
smallHier()
{
    HierarchyConfig h;
    h.l1 = CacheConfig{4 * 128, 2, 128};
    h.l2 = CacheConfig{64 * 128, 4, 128};
    return h;
}

/**
 * Harness recording the leaf sequence an adversary would observe.
 * We reconstruct it by reading the position map *before* each access
 * (the leaf about to be touched) - equivalent to bus snooping.
 */
struct Observer
{
    Observer(MemScheme scheme)
        : hier(smallHier()),
          ctl(secCfg(), ControllerConfig{}, hier)
    {
        if (scheme == MemScheme::OramStatic)
            ctl.configureStatic(2);
        else if (scheme == MemScheme::OramDynamic)
            ctl.configureDynamic(DynamicPolicyConfig{});
        else
            ctl.configureBaseline();
    }

    Leaf observeAccess(BlockId b)
    {
        const Leaf leaf = ctl.oram().posMap().leafOf(b);
        now = ctl.demandAccess(now, b, OpType::Read);
        ctl.onDemandTouch(now, b);
        if (const auto v = hier.fillFromMemory(b, false))
            ctl.writebackAccess(now, v->block);
        return leaf;
    }

    CacheHierarchy hier;
    OramController ctl;
    Cycles now{0};
};

double
chiSquareUniform(const std::vector<Leaf> &leaves, std::uint32_t buckets,
                 std::uint64_t num_leaves)
{
    std::vector<double> count(buckets, 0.0);
    for (Leaf l : leaves)
        count[static_cast<std::uint64_t>(l.value()) * buckets /
              num_leaves] += 1;
    const double expect =
        static_cast<double>(leaves.size()) / buckets;
    double chi2 = 0.0;
    for (double c : count)
        chi2 += (c - expect) * (c - expect) / expect;
    return chi2;
}

class LeafUniformity : public ::testing::TestWithParam<MemScheme>
{
};

TEST_P(LeafUniformity, RepeatedSameBlockLooksUniform)
{
    Observer obs(GetParam());
    const std::uint64_t leaves = obs.ctl.oram().engine().tree().numLeaves();
    std::vector<Leaf> observed;
    // Pathological logical pattern: hammer one block. LLC is tiny,
    // but ensure misses by touching conflicting blocks in between.
    for (int i = 0; i < 1500; ++i) {
        observed.push_back(obs.observeAccess(7_id));
        // Evict 7 from the small LLC (same-set conflicts).
        for (std::uint64_t b = 7 + 64; b < 7 + 64 * 6; b += 64)
            obs.observeAccess(BlockId{b});
    }
    // 16 buckets, dof 15: 99.9% critical value 37.7.
    EXPECT_LT(chiSquareUniform(observed, 16, leaves), 37.7);
}

TEST_P(LeafUniformity, SequentialScanLooksUniform)
{
    Observer obs(GetParam());
    const std::uint64_t leaves = obs.ctl.oram().engine().tree().numLeaves();
    std::vector<Leaf> observed;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t b = 0; b < 2000; ++b)
            observed.push_back(obs.observeAccess(BlockId{b}));
    }
    EXPECT_LT(chiSquareUniform(observed, 16, leaves), 37.7);
}

TEST_P(LeafUniformity, ConsecutiveLeavesUncorrelated)
{
    Observer obs(GetParam());
    const double n_leaves =
        static_cast<double>(obs.ctl.oram().engine().tree().numLeaves());
    std::vector<Leaf> observed;
    Rng rng(77);
    for (int i = 0; i < 4000; ++i)
        observed.push_back(obs.observeAccess(BlockId{rng.below(4096)}));
    // Pearson correlation between successive observations.
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    const std::size_t n = observed.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = observed[i].value() / n_leaves;
        const double y = observed[i + 1].value() / n_leaves;
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    const double corr = cov / std::sqrt(vx * vy);
    EXPECT_LT(std::fabs(corr), 0.06);
}

INSTANTIATE_TEST_SUITE_P(Schemes, LeafUniformity,
                         ::testing::Values(MemScheme::OramBaseline,
                                           MemScheme::OramStatic,
                                           MemScheme::OramDynamic),
                         [](const auto &info) {
                             return std::string(schemeName(info.param));
                         });

TEST(Security, RemapIsFreshAfterEveryAccess)
{
    Observer obs(MemScheme::OramBaseline);
    // After accessing block b, its next observed leaf must be drawn
    // independently: check that consecutive observed leaves for the
    // same block repeat no more often than chance predicts.
    std::vector<Leaf> observed;
    for (int i = 0; i < 2000; ++i) {
        observed.push_back(obs.observeAccess(3_id));
        for (std::uint64_t b = 3 + 64; b < 3 + 64 * 6; b += 64)
            obs.observeAccess(BlockId{b});
    }
    std::uint64_t repeats = 0;
    for (std::size_t i = 1; i < observed.size(); ++i)
        repeats += observed[i] == observed[i - 1] ? 1 : 0;
    const double expected =
        static_cast<double>(observed.size()) /
        static_cast<double>(obs.ctl.oram().engine().tree().numLeaves());
    EXPECT_LT(static_cast<double>(repeats), 8 * expected + 8);
}

TEST(Security, DynamicAndBaselineIssueIndistinguishableUnits)
{
    // Every logical access must be a whole-path access: the adversary
    // sees only (leaf, full path) pairs. Structural check: the path
    // read counter equals the number of path-unit operations the
    // controller reports, for both schemes.
    for (MemScheme scheme :
         {MemScheme::OramBaseline, MemScheme::OramDynamic}) {
        Observer obs(scheme);
        Rng rng(5);
        for (int i = 0; i < 500; ++i)
            obs.observeAccess(BlockId{rng.below(4096)});
        EXPECT_EQ(obs.ctl.oram().engine().pathReads(),
                  obs.ctl.stats().pathAccesses)
            << schemeName(scheme);
    }
}

} // namespace
} // namespace proram
