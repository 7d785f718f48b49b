/**
 * @file
 * Batched request pipeline determinism: the TraceCpu drive loop
 * amortizes decode and stats flushes over RequestBatch-sized chunks,
 * but per-record semantics (access order, epoch rolls, scheduler
 * decisions) are untouched - so every batch size must produce a
 * bit-identical SimResult. This is the contract that lets the batch
 * size be a pure performance knob.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/experiment.hh"
#include "trace/benchmarks.hh"

namespace proram
{
namespace
{

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.references, b.references);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.pathAccesses, b.pathAccesses);
    EXPECT_EQ(a.posMapAccesses, b.posMapAccesses);
    EXPECT_EQ(a.bgEvictions, b.bgEvictions);
    EXPECT_EQ(a.periodicDummies, b.periodicDummies);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.prefetchMisses, b.prefetchMisses);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.breaks, b.breaks);
    EXPECT_DOUBLE_EQ(a.avgStashOccupancy, b.avgStashOccupancy);
}

SimResult
runWithBatch(const Experiment &exp, MemScheme scheme,
             std::uint32_t batch)
{
    return exp.runWith(
        scheme,
        [batch](SystemConfig &cfg) { cfg.cpuBatch = batch; },
        [&] { return makeGenerator(profileByName("cholesky"),
                                   exp.traceScale()); });
}

TEST(BatchedDrive, BatchSizeNeverChangesResults)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    const MemScheme schemes[] = {MemScheme::Dram,
                                 MemScheme::OramBaseline,
                                 MemScheme::OramDynamic};
    for (const MemScheme scheme : schemes) {
        const SimResult base = runWithBatch(exp, scheme, 1);
        expectSameResult(base, runWithBatch(exp, scheme, 7),
                         "batch 7 vs 1");
        expectSameResult(base, runWithBatch(exp, scheme, 64),
                         "batch 64 vs 1");
    }
}

TEST(BatchedDrive, ReplayFastPathMatchesLiveGenerator)
{
    // runReplay feeds pre-decoded records through the contiguous-copy
    // fillBatch; the live generator decodes per batch. Same records,
    // same machine - same stats.
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    auto gen = makeGenerator(profileByName("radix"), 0.02);
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (gen->next(rec))
        records.push_back(rec);

    const SimResult live =
        exp.runBenchmark(MemScheme::OramDynamic,
                         profileByName("radix"));
    const SimResult replay =
        exp.runReplay(MemScheme::OramDynamic, records);
    expectSameResult(live, replay, "replay vs live");
}

} // namespace
} // namespace proram
