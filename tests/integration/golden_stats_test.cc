/**
 * @file
 * Fixed-seed golden statistics: a fig08-tiny grid (two SPLASH-2
 * profiles x three ORAM schemes at trace scale 0.02) must reproduce
 * the exact scheme statistics captured from the seed implementation.
 *
 * This is the guard for "the memory layout is an optimization, not a
 * behavior change": the dense stash's insertion-ordered iteration,
 * the slot arena's first-dummy placement, and the array-backed PLB
 * LRU must make bit-identical decisions to the containers they
 * replaced. Any divergence in eviction order, PLB victim choice, or
 * remap visibility shows up here as a changed count.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/arena.hh"
#include "sim/experiment.hh"
#include "sim/system_config.hh"
#include "trace/benchmarks.hh"

namespace proram
{
namespace
{

struct Golden
{
    const char *profile;
    MemScheme scheme;
    std::uint64_t cycles;
    std::uint64_t pathAccesses;
    std::uint64_t posMapAccesses;
    std::uint64_t bgEvictions;
    std::uint64_t prefetchHits;
    std::uint64_t prefetchMisses;
    std::uint64_t merges;
    std::uint64_t breaks;
};

// Captured from the seed implementation (unordered_map stash,
// per-bucket vectors, list LRU) at commit 2a24917, with
// Experiment(defaultSystemConfig(), /*scale=*/0.02), seed defaults.
const Golden kGoldens[] = {
    {"cholesky", MemScheme::OramBaseline,
     3155386, 4894, 1406, 0, 0, 0, 0, 0},
    {"cholesky", MemScheme::OramStatic,
     2462375, 4077, 1380, 67, 0, 8, 0, 0},
    {"cholesky", MemScheme::OramDynamic,
     3155386, 4894, 1406, 0, 0, 0, 868, 0},
    {"radix", MemScheme::OramBaseline,
     4144036, 6699, 2729, 0, 0, 0, 0, 0},
    {"radix", MemScheme::OramStatic,
     3724924, 6252, 2590, 63, 0, 27, 0, 0},
    {"radix", MemScheme::OramDynamic,
     4144036, 6699, 2729, 0, 0, 0, 401, 0},
};

void
expectGolden(const Golden &g, const SimResult &r)
{
    EXPECT_EQ(r.cycles, Cycles{g.cycles});
    EXPECT_EQ(r.pathAccesses, g.pathAccesses);
    EXPECT_EQ(r.posMapAccesses, g.posMapAccesses);
    EXPECT_EQ(r.bgEvictions, g.bgEvictions);
    EXPECT_EQ(r.prefetchHits, g.prefetchHits);
    EXPECT_EQ(r.prefetchMisses, g.prefetchMisses);
    EXPECT_EQ(r.merges, g.merges);
    EXPECT_EQ(r.breaks, g.breaks);
}

TEST(GoldenStats, Fig08TinyMatchesSeedCapture)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    for (const Golden &g : kGoldens) {
        const SimResult r =
            exp.runBenchmark(g.scheme, profileByName(g.profile));
        SCOPED_TRACE(std::string(g.profile) + "/" + r.scheme);
        expectGolden(g, r);
    }
}

struct PeriodicGolden
{
    const char *profile;
    MemScheme scheme;
    std::uint64_t cycles;
    std::uint64_t pathAccesses;
    std::uint64_t posMapAccesses;
    std::uint64_t bgEvictions;
    std::uint64_t periodicDummies;
    std::uint64_t prefetchHits;
    std::uint64_t prefetchMisses;
    std::uint64_t merges;
    std::uint64_t breaks;
};

// Periodic (Oint) mode: same grid with
// controller.periodic.enabled = true at the default interval.
// Captured from commit 9d55793 (pre-SoA), identical under the SoA
// stash + counting-sort eviction scan.
const PeriodicGolden kPeriodicGoldens[] = {
    {"cholesky", MemScheme::OramBaseline,
     3483940, 4967, 1406, 0, 73, 0, 0, 0, 0},
    {"cholesky", MemScheme::OramStatic,
     2732300, 4160, 1380, 10, 140, 0, 8, 0, 0},
    {"cholesky", MemScheme::OramDynamic,
     3483940, 4967, 1406, 0, 73, 0, 0, 868, 0},
    {"radix", MemScheme::OramBaseline,
     4575096, 6701, 2729, 0, 2, 0, 0, 0, 0},
    {"radix", MemScheme::OramStatic,
     4128919, 6295, 2590, 93, 13, 0, 27, 0, 0},
    {"radix", MemScheme::OramDynamic,
     4575096, 6701, 2729, 0, 2, 0, 0, 401, 0},
};

TEST(GoldenStats, Fig08TinyPeriodicModeMatchesCapture)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    for (const PeriodicGolden &g : kPeriodicGoldens) {
        const SimResult r = exp.runWith(
            g.scheme,
            [](SystemConfig &cfg) {
                cfg.controller.periodic.enabled = true;
            },
            [&] {
                return makeGenerator(profileByName(g.profile), 0.02);
            });
        SCOPED_TRACE(std::string(g.profile) + "/" + r.scheme);
        EXPECT_EQ(r.cycles, Cycles{g.cycles});
        EXPECT_EQ(r.pathAccesses, g.pathAccesses);
        EXPECT_EQ(r.posMapAccesses, g.posMapAccesses);
        EXPECT_EQ(r.bgEvictions, g.bgEvictions);
        EXPECT_EQ(r.periodicDummies, g.periodicDummies);
        EXPECT_EQ(r.prefetchHits, g.prefetchHits);
        EXPECT_EQ(r.prefetchMisses, g.prefetchMisses);
        EXPECT_EQ(r.merges, g.merges);
        EXPECT_EQ(r.breaks, g.breaks);
    }
}

TEST(GoldenStats, GoldensHoldUnderEveryArenaBackend)
{
    // The slot arena's storage backend is a memory-layout choice,
    // not a behavior change: lazily materialized chunks must read
    // exactly like the dense lanes they replace, so the full golden
    // grid (run dense above) re-runs bit-identically on the sparse
    // backend. Small chunks on purpose - plenty of chunk-boundary and
    // first-touch traffic.
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    ArenaOptions sparse;
    sparse.kind = ArenaKind::Sparse;
    sparse.chunkBuckets = 64;
    for (const Golden &g : kGoldens) {
        const SimResult r = exp.runWith(
            g.scheme,
            [&sparse](SystemConfig &cfg) { cfg.oram.arena = sparse; },
            [&] {
                return makeGenerator(profileByName(g.profile), 0.02);
            });
        SCOPED_TRACE(std::string("sparse/") + g.profile + "/" +
                     r.scheme);
        expectGolden(g, r);
    }
}

} // namespace
} // namespace proram
