/** @file Unit tests for the ORAM controller (backend integration). */

#include "core/oram_controller.hh"

#include <gtest/gtest.h>

#include "oram/integrity.hh"
#include "sim/system_config.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
ctlCfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 12;
    c.stashCapacity = 80;
    c.seed = 41;
    return c;
}

HierarchyConfig
hierCfg()
{
    HierarchyConfig h;
    h.l1 = CacheConfig{4 * 128, 2, 128};
    h.l2 = CacheConfig{64 * 128, 4, 128};
    return h;
}

struct Fixture
{
    explicit Fixture(MemScheme scheme = MemScheme::OramBaseline,
                     ControllerConfig ccfg = {},
                     OramConfig ocfg = ctlCfg())
        : hier(hierCfg()), ctl(ocfg, ccfg, hier)
    {
        if (scheme == MemScheme::OramStatic)
            ctl.configureStatic(2);
        else if (scheme == MemScheme::OramDynamic)
            ctl.configureDynamic(DynamicPolicyConfig{});
        else
            ctl.configureBaseline();
    }

    CacheHierarchy hier;
    OramController ctl;
};

TEST(Controller, UseBeforeConfigurePanics)
{
    CacheHierarchy hier(hierCfg());
    OramController ctl(ctlCfg(), ControllerConfig{}, hier);
    EXPECT_THROW(ctl.demandAccess(Cycles{0}, 0_id, OpType::Read), SimPanic);
}

TEST(Controller, DemandAccessCostsAtLeastOnePath)
{
    Fixture f;
    const Cycles done = f.ctl.demandAccess(Cycles{0}, 5_id, OpType::Read);
    // Cold PLB: 3 pos-map paths + 1 data path.
    const Cycles path = ctlCfg().pathAccessCycles();
    EXPECT_GE(done, path);
    EXPECT_EQ(f.ctl.stats().pathAccesses,
              f.ctl.stats().posMapAccesses + 1);
}

TEST(Controller, WarmPosMapCostsOnePath)
{
    Fixture f;
    f.ctl.demandAccess(Cycles{0}, 5_id, OpType::Read);
    const auto before = f.ctl.stats().pathAccesses;
    const Cycles t0 = f.ctl.busyUntil();
    const Cycles done = f.ctl.demandAccess(t0, 6_id, OpType::Read);
    EXPECT_EQ(f.ctl.stats().pathAccesses - before, 1u);
    EXPECT_EQ(done - t0, ctlCfg().pathAccessCycles());
}

TEST(Controller, AccessesSerialize)
{
    Fixture f;
    const Cycles c1 = f.ctl.demandAccess(Cycles{0}, 1_id, OpType::Read);
    // Issued while busy: starts after c1.
    const Cycles c2 = f.ctl.demandAccess(Cycles{10}, BlockId{33 * 32}, OpType::Read);
    EXPECT_GE(c2, c1 + ctlCfg().pathAccessCycles());
}

TEST(Controller, ReadYourWrites)
{
    Fixture f;
    Cycles t{0};
    t = f.ctl.dataAccess(t, 9_id, OpType::Write, 1234, nullptr);
    std::uint64_t v = 0;
    f.ctl.dataAccess(t, 9_id, OpType::Read, 0, &v);
    EXPECT_EQ(v, 1234u);
}

TEST(Controller, WritebackWithDataPersists)
{
    Fixture f;
    Cycles t = f.ctl.writebackWithData(Cycles{0}, 4_id, 777);
    std::uint64_t v = 0;
    f.ctl.dataAccess(t, 4_id, OpType::Read, 0, &v);
    EXPECT_EQ(v, 777u);
    EXPECT_EQ(f.ctl.stats().writebacks, 1u);
}

TEST(Controller, NonDataBlockAccessPanics)
{
    Fixture f;
    const BlockId pm{ctlCfg().numDataBlocks + 1};
    EXPECT_THROW(f.ctl.demandAccess(Cycles{0}, pm, OpType::Read), SimPanic);
}

TEST(Controller, StaticSchemePrefetchesIntoLlc)
{
    Fixture f(MemScheme::OramStatic);
    f.ctl.demandAccess(Cycles{0}, 10_id, OpType::Read); // super block {10, 11}
    EXPECT_TRUE(f.hier.probeLlc(11_id));
    EXPECT_FALSE(f.hier.probeLlc(12_id));
}

TEST(Controller, DynamicSchemeLearnsFromLlc)
{
    Fixture f(MemScheme::OramDynamic);
    Cycles t{0};
    // Access 20 then 21: when 21 is accessed, 20 sits in the LLC,
    // so the pair merges; later accesses prefetch the sibling.
    t = f.ctl.demandAccess(t, 20_id, OpType::Read);
    f.hier.fillFromMemory(20_id, false);
    t = f.ctl.demandAccess(t, 21_id, OpType::Read);
    f.hier.fillFromMemory(21_id, false);
    EXPECT_EQ(f.ctl.oram().posMap().entry(20_id).sbSize(), 2u);
    EXPECT_EQ(f.ctl.policyStats().merges, 1u);
}

TEST(Controller, BackgroundEvictionKeepsStashBounded)
{
    OramConfig ocfg = ctlCfg();
    ocfg.stashCapacity = 12;
    Fixture f(MemScheme::OramStatic, ControllerConfig{}, ocfg);
    Rng rng(3);
    Cycles t{0};
    for (int i = 0; i < 300; ++i) {
        t = f.ctl.demandAccess(t, BlockId{rng.below(4096)}, OpType::Read);
        EXPECT_LE(f.ctl.oram().engine().stash().size(), 12u);
    }
    EXPECT_GT(f.ctl.stats().bgEvictions, 0u);
}

TEST(Controller, EpochRollsEveryNRequests)
{
    ControllerConfig ccfg;
    ccfg.epochRequests = 10;
    Fixture f(MemScheme::OramDynamic, ccfg);
    Rng rng(4);
    Cycles t{0};
    for (int i = 0; i < 25; ++i)
        t = f.ctl.demandAccess(t, BlockId{rng.below(4096)}, OpType::Read);
    // No direct observable beyond "no crash" plus thresholds update;
    // sanity: the run completed and stats accumulated.
    EXPECT_EQ(f.ctl.stats().realRequests, 25u);
}

TEST(Controller, PeriodicModeCountsDummies)
{
    ControllerConfig ccfg;
    ccfg.periodic.enabled = true;
    ccfg.periodic.oInt = Cycles{100};
    Fixture f(MemScheme::OramBaseline, ccfg);
    Cycles t = f.ctl.demandAccess(Cycles{0}, 1_id, OpType::Read);
    // Long idle gap: dummies must fill it.
    t += Cycles{50000};
    f.ctl.demandAccess(t, 2_id, OpType::Read);
    EXPECT_GT(f.ctl.stats().periodicDummies, 0u);
    f.ctl.finalize(t + Cycles{100000});
    EXPECT_GT(f.ctl.stats().periodicDummies, 10u);
}

TEST(Controller, PeriodicDummiesAreFunctional)
{
    ControllerConfig ccfg;
    ccfg.periodic.enabled = true;
    ccfg.periodic.oInt = Cycles{100};
    Fixture f(MemScheme::OramBaseline, ccfg);
    Cycles t = f.ctl.demandAccess(Cycles{0}, 1_id, OpType::Read);
    f.ctl.finalize(t + Cycles{200000});
    // Dummy accesses really read paths.
    EXPECT_EQ(f.ctl.oram().engine().pathReads(),
              f.ctl.stats().pathAccesses);
    EXPECT_TRUE(checkIntegrity(f.ctl.oram()).ok);
}

TEST(Controller, TraditionalPrefetcherIssuesOramAccesses)
{
    ControllerConfig ccfg;
    ccfg.traditionalPrefetcher = true;
    Fixture f(MemScheme::OramBaseline, ccfg);
    Cycles t{0};
    for (std::uint64_t i = 100; i < 110; ++i) {
        const BlockId b{i};
        t = f.ctl.demandAccess(t, b, OpType::Read);
        f.hier.fillFromMemory(b, false);
        f.ctl.onDemandTouch(t, b);
    }
    EXPECT_GT(f.ctl.stats().traditionalPrefetches, 0u);
}

TEST(Controller, MemAccessCountEqualsPathAccesses)
{
    Fixture f(MemScheme::OramDynamic);
    Rng rng(6);
    Cycles t{0};
    for (int i = 0; i < 100; ++i)
        t = f.ctl.demandAccess(t, BlockId{rng.below(4096)}, OpType::Read);
    EXPECT_EQ(f.ctl.memAccessCount(), f.ctl.stats().pathAccesses);
    EXPECT_EQ(f.ctl.oram().engine().pathReads(),
              f.ctl.stats().pathAccesses);
}


TEST(Controller, BgEvictionBudgetBoundsPathologicalConfigs)
{
    // Static sbsize 8 at Z=3 cannot fit in the tree: more blocks are
    // permanently homeless than the stash holds. The per-request
    // budget must keep the simulation finite while recording the
    // collapse in the dummy-access count.
    OramConfig ocfg = ctlCfg();
    ocfg.numDataBlocks = 48 * 1024;
    ControllerConfig ccfg;
    ccfg.maxBgEvictionsPerRequest = 8;
    CacheHierarchy hier(hierCfg());
    OramController ctl(ocfg, ccfg, hier);
    ctl.configureStatic(8);
    Cycles t{0};
    for (int i = 0; i < 20; ++i)
        t = ctl.demandAccess(t, BlockId{static_cast<std::uint64_t>(i) * 64},
                             OpType::Read);
    EXPECT_GE(ctl.stats().bgEvictions, 8u * 10);
    EXPECT_LE(ctl.stats().bgEvictions, 8u * 20 + 20);
}

TEST(Controller, PrefetchDropUndoesMarking)
{
    // Fill the tiny LLC with dirty lines so the prefetch insertion of
    // a merged sibling is refused; its prefetch bit must be cleared.
    Fixture f(MemScheme::OramDynamic);
    Cycles t{0};
    // Merge pair (20, 21).
    t = f.ctl.demandAccess(t, 20_id, OpType::Read);
    f.hier.fillFromMemory(20_id, false);
    t = f.ctl.demandAccess(t, 21_id, OpType::Read);
    f.hier.fillFromMemory(21_id, false);
    ASSERT_EQ(f.ctl.oram().posMap().entry(20_id).sbSize(), 2u);
    // Dirty every LLC set.
    for (std::uint64_t b = 1000; b < 1000 + 64; ++b)
        f.hier.fillFromMemory(BlockId{b}, true);
    // Re-access 20: sibling 21 prefetch insertion hits a dirty
    // victim everywhere -> dropped -> bit cleared.
    t = f.ctl.demandAccess(t, 20_id, OpType::Read);
    EXPECT_FALSE(f.hier.probeLlc(21_id));
    EXPECT_FALSE(f.ctl.oram().posMap().entry(21_id).prefetchBit);
}

TEST(Controller, IntegrityAfterMixedWorkload)
{
    for (MemScheme scheme :
         {MemScheme::OramBaseline, MemScheme::OramStatic,
          MemScheme::OramDynamic}) {
        Fixture f(scheme);
        Rng rng(scheme == MemScheme::OramStatic ? 1 : 2);
        Cycles t{0};
        for (int i = 0; i < 250; ++i) {
            const BlockId b{rng.below(4096)};
            const OpType op =
                rng.chance(0.3) ? OpType::Write : OpType::Read;
            t = f.ctl.demandAccess(t, b, op);
            f.ctl.onDemandTouch(t, b);
            if (const auto v = f.hier.fillFromMemory(
                    b, op == OpType::Write)) {
                f.ctl.writebackAccess(t, v->block);
            }
        }
        const auto rep = checkIntegrity(f.ctl.oram());
        EXPECT_TRUE(rep.ok)
            << schemeName(scheme) << ": "
            << (rep.violations.empty() ? "" : rep.violations.front());
    }
}

} // namespace
} // namespace proram
