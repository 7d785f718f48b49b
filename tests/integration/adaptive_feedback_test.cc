/** @file Integration: the Eq. 1 feedback loop end to end - the
 *  controller's measured rates must reach the policy and move the
 *  thresholds in the right direction. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/oram_controller.hh"
#include "sim/system_config.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

struct Rig
{
    explicit Rig(std::uint32_t stash)
    {
        // High-utilization tree (the Table 1 operating point) so
        // merged pairs generate real background-eviction pressure.
        ocfg.numDataBlocks = 48 * 1024;
        ocfg.stashCapacity = stash;
        ocfg.seed = 51;
        ccfg.epochRequests = 200;
        hier = std::make_unique<CacheHierarchy>(HierarchyConfig{
            CacheConfig{4 * 128, 2, 128},
            CacheConfig{64 * 128, 4, 128}, Cycles{1}, Cycles{10}});
        ctl = std::make_unique<OramController>(ocfg, ccfg, *hier);
        ctl->configureDynamic(DynamicPolicyConfig{});
        policy = static_cast<DynamicSuperBlockPolicy *>(&ctl->policy());
    }

    /**
     * Drive repeated write-heavy scans over a cyclic working set,
     * sampling the epoch-updated thresholds (pressure is bursty, so
     * the peak is the meaningful observable).
     */
    void
    scan(std::uint64_t accesses, std::uint64_t footprint = 6000)
    {
        Cycles t = ctl->busyUntil();
        Rng rng(5);
        for (std::uint64_t i = 0; i < accesses; ++i) {
            const BlockId b{i % footprint};
            const OpType op =
                rng.chance(0.5) ? OpType::Write : OpType::Read;
            t = ctl->demandAccess(t, b, op);
            ctl->onDemandTouch(t, b);
            if (const auto v =
                    hier->fillFromMemory(b, op == OpType::Write))
                ctl->writebackAccess(t, v->block);
            maxMergeThr = std::max(maxMergeThr,
                                   policy->mergeThreshold(1));
            maxBreakThr = std::max(maxBreakThr,
                                   policy->breakThreshold(2));
        }
    }

    OramConfig ocfg;
    ControllerConfig ccfg;
    std::unique_ptr<CacheHierarchy> hier;
    std::unique_ptr<OramController> ctl;
    DynamicSuperBlockPolicy *policy = nullptr;
    double maxMergeThr = 0.0;
    double maxBreakThr = 0.0;
};

TEST(AdaptiveFeedback, PressureRaisesMergeThreshold)
{
    // Tiny stash: merged pairs trigger background evictions, epochs
    // roll, and eviction_rate x access_rate reaches Eq. 1.
    Rig pressured(/*stash=*/10);
    pressured.scan(18000);
    ASSERT_GT(pressured.ctl->stats().bgEvictions, 0u);
    EXPECT_GT(pressured.maxMergeThr, 1.0)
        << "eviction pressure never raised the Eq. 1 threshold";

    // Plenty of stash: no pressure, threshold pinned at the
    // hysteresis floor throughout.
    Rig relaxed(/*stash=*/400);
    relaxed.scan(18000);
    EXPECT_GT(pressured.maxMergeThr, relaxed.maxMergeThr);
    EXPECT_DOUBLE_EQ(relaxed.maxMergeThr, 1.0);
}

TEST(AdaptiveFeedback, BreakThresholdNeverDropsBelowFloor)
{
    // The break threshold needs ev*acc > phr/4 to leave its floor
    // (Eq. 1 with sbsize 2) - rarer than the merge threshold moving;
    // the invariant under any pressure is floor <= break <= merge+1.
    Rig pressured(/*stash=*/10);
    pressured.scan(18000);
    EXPECT_GE(pressured.maxBreakThr, 1.0);
    Rig relaxed(/*stash=*/400);
    relaxed.scan(18000);
    EXPECT_GE(pressured.maxBreakThr, relaxed.maxBreakThr);
}

TEST(AdaptiveFeedback, PressuredSystemMergesMoreConservatively)
{
    // Same locality, same trace: the pressured system must not end
    // with more merged pairs than the relaxed one.
    Rig pressured(/*stash=*/10);
    pressured.scan(18000);
    Rig relaxed(/*stash=*/400);
    relaxed.scan(18000);
    EXPECT_LE(pressured.ctl->policyStats().merges,
              relaxed.ctl->policyStats().merges);
}

} // namespace
} // namespace proram
