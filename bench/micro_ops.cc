/**
 * @file
 * google-benchmark microbenchmarks of the simulator's primitive
 * operations: a remapping data access with background eviction,
 * pos-map walk, eviction with a near-full stash, full controller
 * accesses per scheme, the cache hierarchy and DRAM backend under the
 * trace core, policy bookkeeping, and the isolated memory-layout
 * loops (stash scan, PLB lookup, tree path touch) that the
 * cache-conscious containers target.
 * These measure *simulator* throughput (host time), useful for
 * estimating experiment wall-clock budgets.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/oram_controller.hh"
#include "cpu/trace_cpu.hh"
#include "mem/dram_backend.hh"
#include "obs/trace.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "trace/benchmarks.hh"
#include "trace/trace_file.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

OramConfig
microCfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 14;
    c.seed = 77;
    return c;
}

HierarchyConfig
microHier()
{
    HierarchyConfig h;
    h.l1 = CacheConfig{32 * 128, 4, 128};
    h.l2 = CacheConfig{512 * 128, 8, 128};
    return h;
}

void
BM_EvictHighOccupancy(benchmark::State &state)
{
    // One data access - read the block's path, remap the block, write
    // back - plus the background evictions that bring the stash back
    // under capacity, on a tree full enough (Z = 2) that the stash
    // stays near capacity between accesses: the regime of the Ring
    // and static-super-block cells, where eviction's per-stash-block
    // work dominates.
    OramConfig cfg = microCfg();
    cfg.z = 2;
    UnifiedOram oram(cfg);
    oram.initialize();
    OramScheme &engine = oram.engine();
    Rng rng(6);
    std::uint64_t evictions = 0;
    double stash_sum = 0;
    for (auto _ : state) {
        const BlockId b{rng.below(cfg.numDataBlocks)};
        const Leaf leaf = engine.posMap().leafOf(b);
        engine.readPath(leaf);
        engine.posMap().setLeaf(b, engine.randomLeaf());
        stash_sum += static_cast<double>(engine.stash().size());
        engine.writePath(leaf);
        while (engine.stash().overCapacity()) {
            engine.dummyAccess();
            ++evictions;
        }
    }
    state.SetItemsProcessed(state.iterations());
    const double n = static_cast<double>(state.iterations());
    state.counters["stashAtEvict"] = n > 0 ? stash_sum / n : 0;
    state.counters["bgPerAccess"] =
        n > 0 ? static_cast<double>(evictions) / n : 0;
}
BENCHMARK(BM_EvictHighOccupancy);

void
BM_PathAccessRemap(benchmark::State &state)
{
    // One data access at the engine geometry of defaultSystemConfig(),
    // which the perfbench dbms cells run (48 Ki data blocks, Z = 3,
    // L = 14, about 52% slot utilization): read the demanded block's
    // path, remap the block, write back, then background-evict while
    // the stash is over capacity. Every access remaps, so blocks
    // spread over the tree as in a simulation, but the stash left
    // after each eviction stays near empty (the stashMean counter
    // reads about 1 block, where the dbms cells' oram.stash_occ_mean
    // is about 50): the near-full regime is BM_EvictHighOccupancy's.
    OramConfig cfg = microCfg();
    cfg.numDataBlocks = 48 * 1024;
    cfg.z = 3;
    UnifiedOram oram(cfg);
    oram.initialize();
    OramScheme &engine = oram.engine();
    Rng rng(15);
    std::uint64_t evictions = 0;
    for (auto _ : state) {
        const BlockId b{rng.below(cfg.numDataBlocks)};
        const Leaf leaf = engine.posMap().leafOf(b);
        engine.readPath(leaf);
        engine.posMap().setLeaf(b, engine.randomLeaf());
        engine.writePath(leaf);
        while (engine.stash().overCapacity()) {
            engine.dummyAccess();
            ++evictions;
        }
    }
    state.SetItemsProcessed(state.iterations());
    const double n = static_cast<double>(state.iterations());
    state.counters["bgPerAccess"] =
        n > 0 ? static_cast<double>(evictions) / n : 0;
    state.counters["stashMean"] = engine.stash().occupancy().mean();
}
BENCHMARK(BM_PathAccessRemap);

void
BM_PosMapWalk(benchmark::State &state)
{
    UnifiedOram oram(microCfg());
    oram.initialize();
    Rng rng(2);
    for (auto _ : state) {
        const BlockId b{rng.below(oram.space().numDataBlocks())};
        benchmark::DoNotOptimize(oram.posMapWalk(b).pathAccesses());
        while (oram.engine().stash().overCapacity())
            oram.engine().dummyAccess();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PosMapWalk);

void
BM_ControllerAccess(benchmark::State &state)
{
    const auto scheme = static_cast<MemScheme>(state.range(0));
    CacheHierarchy hier(microHier());
    OramController ctl(microCfg(), ControllerConfig{}, hier);
    if (scheme == MemScheme::OramStatic)
        ctl.configureStatic(2);
    else if (scheme == MemScheme::OramDynamic)
        ctl.configureDynamic(DynamicPolicyConfig{});
    else
        ctl.configureBaseline();

    Rng rng(3);
    Cycles now{0};
    for (auto _ : state) {
        const BlockId b{rng.below(1ULL << 14)};
        now = ctl.demandAccess(now, b, OpType::Read);
        ctl.onDemandTouch(now, b);
        if (const auto v = hier.fillFromMemory(b, false))
            ctl.writebackAccess(now, v->block);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(schemeName(scheme));
}
BENCHMARK(BM_ControllerAccess)
    ->Arg(static_cast<int>(MemScheme::OramBaseline))
    ->Arg(static_cast<int>(MemScheme::OramStatic))
    ->Arg(static_cast<int>(MemScheme::OramDynamic));

void
BM_StashScan(benchmark::State &state)
{
    // The writePath eviction scan in isolation: iterate a populated
    // stash and compute each block's eviction level off the cached
    // leaf (the contiguous-entry hot loop of the dense stash).
    UnifiedOram oram(microCfg());
    oram.initialize();
    OramScheme &engine = oram.engine();
    // Pull a few paths in without writing back to populate the stash.
    for (std::uint32_t l = 0; l < 4; ++l)
        engine.readPath(engine.randomLeaf());
    const BinaryTree &tree = engine.tree();
    Leaf target{0};
    for (auto _ : state) {
        std::uint64_t acc = 0;
        engine.stash().forEachResident([&](const StashEntry &e) {
            acc += tree.commonLevel(e.leaf, target).value();
        });
        benchmark::DoNotOptimize(acc);
        target = Leaf{static_cast<std::uint32_t>(
            (target.value() + 1) % tree.numLeaves())};
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["stashBlocks"] =
        static_cast<double>(engine.stash().size());
}
BENCHMARK(BM_StashScan);

void
BM_PlbLookup(benchmark::State &state)
{
    // PLB hit/miss/insert churn over a working set larger than the
    // cache: exercises the array-backed LRU's refresh and eviction.
    PosMapBlockCache plb(64);
    Rng rng(5);
    for (auto _ : state) {
        const BlockId b{rng.below(256)};
        if (!plb.lookup(b))
            plb.insert(b);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlbLookup);

void
BM_TreePathTouch(benchmark::State &state)
{
    // Raw slot-arena traversal: walk one root-to-leaf path and sum
    // bucket occupancies (the memory-access pattern of readPath
    // without the stash work).
    UnifiedOram oram(microCfg());
    oram.initialize();
    const BinaryTree &tree = oram.engine().tree();
    Leaf leaf{0};
    for (auto _ : state) {
        std::uint64_t occupied = 0;
        for (std::uint32_t l = 0; l <= tree.levels(); ++l)
            occupied += tree.occupancy(tree.nodeOnPath(leaf, Level{l}));
        benchmark::DoNotOptimize(occupied);
        leaf = Leaf{static_cast<std::uint32_t>(
            (leaf.value() + 1) % tree.numLeaves())};
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreePathTouch);

void
BM_SparseTreeTouch(benchmark::State &state)
{
    // BM_TreePathTouch with the sparse backend and nothing
    // materialized: the cost of the chunk-directory indirection on
    // the all-implicit read path (what cold tree regions pay under
    // the lazy layout).
    OramConfig cfg = microCfg();
    cfg.lazyInit = true;
    cfg.arena.kind = ArenaKind::Sparse;
    UnifiedOram oram(cfg);
    oram.initialize();
    const BinaryTree &tree = oram.engine().tree();
    Leaf leaf{0};
    for (auto _ : state) {
        std::uint64_t occupied = 0;
        for (std::uint32_t l = 0; l <= tree.levels(); ++l)
            occupied += tree.occupancy(tree.nodeOnPath(leaf, Level{l}));
        benchmark::DoNotOptimize(occupied);
        leaf = Leaf{static_cast<std::uint32_t>(
            (leaf.value() + 1) % tree.numLeaves())};
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["chunksMaterialized"] =
        static_cast<double>(tree.arena().chunksMaterialized());
    state.counters["arenaBytesResident"] =
        static_cast<double>(tree.arena().bytesResident());
}
BENCHMARK(BM_SparseTreeTouch);

void
BM_TreeConstruct(benchmark::State &state)
{
    // Dense arena construction at ~0.5 M buckets: dominated by lane
    // initialization (id/free fills; payload lanes stay
    // uninitialized until a real block lands).
    for (auto _ : state) {
        BinaryTree t(18, 3);
        benchmark::DoNotOptimize(t.numBuckets());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeConstruct);

void
BM_LargeTreeDrive(benchmark::State &state)
{
    // Full controller accesses against a 2^24-block tree - a scale
    // the dense layout cannot even allocate on small hosts. Lazy
    // init + sparse arena keep residency proportional to the touched
    // working set; the counters record how much actually
    // materialized.
    OramConfig cfg;
    cfg.numDataBlocks = 1ULL << 24;
    cfg.stashCapacity = 400;
    cfg.seed = 77;
    cfg.lazyInit = true;
    cfg.arena.kind = ArenaKind::Sparse;
    CacheHierarchy hier(microHier());
    OramController ctl(cfg, ControllerConfig{}, hier);
    ctl.configureBaseline();
    Rng rng(9);
    for (auto _ : state) {
        const BlockId b{rng.below(cfg.numDataBlocks)};
        ctl.dataAccess(ctl.busyUntil(), b, OpType::Write, b.value(),
                       nullptr);
    }
    state.SetItemsProcessed(state.iterations());
    const ArenaBackend &arena = ctl.oram().engine().tree().arena();
    state.counters["chunksMaterialized"] =
        static_cast<double>(arena.chunksMaterialized());
    state.counters["arenaBytesResident"] =
        static_cast<double>(arena.bytesResident());
}
BENCHMARK(BM_LargeTreeDrive);

void
BM_BatchedDrive(benchmark::State &state)
{
    // End-to-end drive-loop overhead: replay one pre-decoded trace
    // through a full System at the given batch size. The Dram scheme
    // keeps the backend cheap so decode + stats-flush overhead (what
    // batching amortizes) dominates the measurement.
    const auto batch = static_cast<std::uint32_t>(state.range(0));
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::Dram;
    cfg.cpuBatch = batch;
    std::vector<TraceRecord> records;
    {
        auto gen = makeGenerator(profileByName("cholesky"), 0.05);
        TraceRecord rec;
        while (gen->next(rec))
            records.push_back(rec);
    }
    std::uint64_t refs = 0;
    for (auto _ : state) {
        System system(cfg);
        ReplayGenerator replay(records);
        const SimResult r = system.run(replay);
        benchmark::DoNotOptimize(r.cycles);
        refs += r.references;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
    state.counters["traceRecords"] =
        static_cast<double>(records.size());
}
BENCHMARK(BM_BatchedDrive)->Arg(1)->Arg(64);

void
BM_CacheHierarchyDrive(benchmark::State &state)
{
    // A dram_baseline cell without the System around it: the trace
    // core over the Table 1 L1 + LLC and a DramBackend, without
    // (Arg 0, scheme dram) or with (Arg 1, dram_pre) the stream
    // prefetcher and its buffer. No ORAM code runs, so this times the
    // per-reference cache, prefetcher and prefetch-buffer work.
    const bool prefetch = state.range(0) != 0;
    const SystemConfig sys = defaultSystemConfig();
    DramBackendConfig dcfg = sys.dram;
    dcfg.prefetch = prefetch;
    std::vector<TraceRecord> records;
    {
        auto gen = makeGenerator(profileByName("ocean_c"), 0.05);
        TraceRecord rec;
        while (gen->next(rec))
            records.push_back(rec);
    }
    std::uint64_t refs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        CacheHierarchy hier(sys.hierarchy);
        DramBackend backend(dcfg);
        TraceCpu cpu(hier, backend, sys.hierarchy.l1.lineBytes);
        ReplayGenerator replay(records);
        state.ResumeTiming();
        const CpuRunResult r = cpu.run(replay);
        benchmark::DoNotOptimize(r.cycles);
        refs += r.references;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
    state.SetLabel(prefetch ? "dram_pre" : "dram");
}
BENCHMARK(BM_CacheHierarchyDrive)->Arg(0)->Arg(1);

void
BM_TraceOverhead(benchmark::State &state)
{
    // The <=2% compiled-in-but-idle budget (ISSUE acceptance): run
    // the instrumented ORAM access loop with the tracer disabled
    // (Arg 0) and enabled (Arg 1). Arg 0 vs a -DPRORAM_TRACING=OFF
    // build of the same bench bounds the macro cost; Arg 1 prices
    // actual recording (not part of the budget, reported for scale).
    const bool tracing = state.range(0) != 0;
#if PRORAM_TRACE_ENABLED
    obs::TraceSink &sink = obs::TraceSink::instance();
    const bool was_enabled = sink.enabled();
    sink.setEnabled(tracing);
#else
    if (tracing) {
        state.SkipWithError("tracer compiled out");
        return;
    }
#endif
    CacheHierarchy hier(microHier());
    OramController ctl(microCfg(), ControllerConfig{}, hier);
    ctl.configureDynamic(DynamicPolicyConfig{});
    Rng rng(7);
    Cycles now{0};
    for (auto _ : state) {
        const BlockId b{rng.below(1ULL << 14)};
        now = ctl.demandAccess(now, b, OpType::Read);
        ctl.onDemandTouch(now, b);
        if (const auto v = hier.fillFromMemory(b, false))
            ctl.writebackAccess(now, v->block);
    }
#if PRORAM_TRACE_ENABLED
    sink.setEnabled(was_enabled);
    sink.clear();
#endif
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(tracing ? "tracing" : "idle");
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

void
BM_MergeBreakBookkeeping(benchmark::State &state)
{
    // Isolated policy-math cost: counter reconstruction + threshold.
    UnifiedOram oram(microCfg());
    oram.initialize();
    class NoLlc : public LlcProbe
    {
      public:
        bool probe(BlockId) const override { return true; }
    } llc;
    DynamicSuperBlockPolicy policy(oram, llc, DynamicPolicyConfig{});
    Rng rng(4);
    std::uint32_t v = 0;
    for (auto _ : state) {
        const BlockId pair{rng.below((1ULL << 14) / 2) * 2};
        policy.writeMergeCounter(pair, 1, v & 3);
        benchmark::DoNotOptimize(policy.readMergeCounter(pair, 1));
        benchmark::DoNotOptimize(policy.mergeThreshold(1));
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeBreakBookkeeping);

} // namespace
} // namespace proram

BENCHMARK_MAIN();
