/**
 * @file
 * End-to-end benchmark of the simulator. Runs one named workload - a
 * fixed list of (benchmark profile x scheme x tree engine) cells - over
 * and over for a time budget, checks every cell, and prints the
 * metrics as one JSON object on the last line of stdout.
 *
 *   proram_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 reports the end-to-end (host) metrics: one traced check
 * pass (wired through the layer probes) that runs every check,
 * followed by timed plain System::run passes, each followed by a
 * memory-latency probe that scales its rate. --trace 1 reports the
 * per-layer metrics: each cell runs plain and then traced. In both
 * modes every traced pass's digest of all simulated statistics must
 * equal every plain pass's. README.md documents the workloads and
 * metrics.
 */

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpu/trace_cpu.hh"
#include "layers.hh"
#include "mem/dram_backend.hh"
#include "oram/integrity.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/benchmarks.hh"

using namespace proram;
using perfbench::LayerSpans;
using perfbench::nowNs;

namespace
{

/** Workload seed that keeps every profile's and the ORAM's own seed. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Fewest timed passes a run makes, whatever the time budget. */
constexpr std::size_t kMinPasses = 3;
/** Set-ups of each cell per plain run; setup_s takes the fastest. */
constexpr int kSetupRepeats = 8;
/** Memory-probe latency that refs_per_s is scaled to (README.md). */
constexpr double kRefLoadNs = 100.0;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** FNV-1a, 64 bit. */
struct Digest
{
    std::uint64_t h = 0xCBF29CE484222325ULL;

    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001B3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

/** One simulation: a profile run under one scheme on one engine. */
struct CellSpec
{
    BenchmarkProfile profile;
    MemScheme scheme = MemScheme::OramBaseline;
    SchemeKind engine = SchemeKind::Path;
    double scale = 1.0;
    std::uint64_t oramSeed = 1;

    bool isOram() const
    {
        return scheme != MemScheme::Dram &&
               scheme != MemScheme::DramPrefetch;
    }

    std::string label() const
    {
        std::string s = profile.name + "/" + schemeName(scheme);
        if (isOram())
            s += std::string("/") + schemeKindName(engine);
        return s;
    }

    SystemConfig config() const
    {
        SystemConfig cfg = defaultSystemConfig();
        cfg.scheme = scheme;
        cfg.oram.scheme = engine;
        cfg.oram.seed = oramSeed;
        return cfg;
    }
};

struct WorkloadSpec
{
    std::string name;
    std::vector<CellSpec> cells;
    /** Demand latencies of these schemes feed lat_p50/p999_cyc. */
    MemScheme latencyScheme = MemScheme::OramDynamic;
    /** Apply the paper-shape checks (dbms). */
    bool shapeChecks = false;
};

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed)
{
    const std::uint64_t oram_seed =
        seed == kDefaultSeed
            ? defaultSystemConfig().oram.seed
            : splitmix64(defaultSystemConfig().oram.seed ^
                         splitmix64(seed ^ 0x5EEDULL));
    WorkloadSpec w;
    w.name = name;
    const auto add = [&](const BenchmarkProfile &base, MemScheme scheme,
                         SchemeKind engine, double scale) {
        CellSpec c;
        c.profile = base;
        if (seed != kDefaultSeed)
            c.profile.seed = splitmix64(base.seed ^ splitmix64(seed));
        c.scheme = scheme;
        c.engine = engine;
        c.scale = scale;
        c.oramSeed = oram_seed;
        w.cells.push_back(std::move(c));
    };

    // Trace lengths (the makeGenerator scale) keep one pass at 1.5-3 s
    // of host time, so that a run times every cell many times.
    if (name == "dbms") {
        w.shapeChecks = true;
        for (const BenchmarkProfile &p : dbmsSuite()) {
            for (MemScheme s :
                 {MemScheme::Dram, MemScheme::OramBaseline,
                  MemScheme::OramStatic, MemScheme::OramDynamic})
                add(p, s, SchemeKind::Path, 0.3);
        }
        for (MemScheme s :
             {MemScheme::OramBaseline, MemScheme::OramDynamic})
            add(profileByName("YCSB"), s, SchemeKind::Ring, 0.3);
    } else if (name == "dram_baseline") {
        w.latencyScheme = MemScheme::Dram;
        for (const auto *suite :
             {&splash2Suite(), &spec06Suite(), &dbmsSuite()}) {
            for (const BenchmarkProfile &p : *suite) {
                add(p, MemScheme::Dram, SchemeKind::Path, 1.0);
                add(p, MemScheme::DramPrefetch, SchemeKind::Path, 1.0);
            }
        }
    }
    return w;
}

enum class Mode
{
    Plain,  ///< System::run, nothing wrapped
    Traced, ///< wired through the layer probes, every call timed
};

/** Everything one cell run produced. */
struct CellOutcome
{
    SimResult result;
    std::uint64_t digest = 0;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    std::vector<std::string> errors;

    // Wired runs only.
    LayerSpans spans;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t cacheCycles = 0;

    // Backend detail.
    std::uint64_t realRequests = 0;
    std::uint64_t ctlWritebacks = 0;
    std::uint64_t plbHits = 0;
    std::uint64_t plbMisses = 0;
    std::uint64_t arenaBytes = 0;
    double stashMax = 0.0;
    SchemeCounters ring{};
    std::uint64_t dramBufferHits = 0;

    bool ok() const { return errors.empty(); }
};

/** System::run's result extraction, for a run wired by hand. */
SimResult
resultOf(System &sys, const CpuRunResult &cpu)
{
    SimResult res;
    res.scheme = schemeName(sys.config().scheme);
    res.cycles = cpu.cycles;
    res.references = cpu.references;
    res.llcMisses = cpu.llcMisses;
    res.writebacks = cpu.writebacks;
    res.memAccesses = sys.backend().memAccessCount();
    if (OramController *ctl = sys.controller()) {
        const ControllerStats &cs = ctl->stats();
        const PolicyStats &ps = ctl->policyStats();
        res.pathAccesses = cs.pathAccesses;
        res.posMapAccesses = cs.posMapAccesses;
        res.bgEvictions = cs.bgEvictions;
        res.periodicDummies = cs.periodicDummies;
        res.prefetchHits = ps.prefetchHits;
        res.prefetchMisses = ps.prefetchMisses;
        res.merges = ps.merges;
        res.breaks = ps.breaks;
        res.avgStashOccupancy =
            ctl->oram().engine().stash().occupancy().mean();
    }
    return res;
}

/** Digest of every simulated statistic a cell exposes. */
std::uint64_t
digestOf(const CellSpec &spec, const SimResult &r, const System &sys)
{
    Digest d;
    d.str(spec.label());
    d.str(r.scheme);
    for (std::uint64_t v :
         {r.cycles.value(), r.references, r.llcMisses, r.writebacks,
          r.memAccesses, r.pathAccesses, r.posMapAccesses, r.bgEvictions,
          r.periodicDummies, r.prefetchHits, r.prefetchMisses, r.merges,
          r.breaks})
        d.u64(v);
    d.f64(r.avgStashOccupancy);
    d.str(sys.dumpStats());
    return d.h;
}

/**
 * Fastest of @p n constructions of the cell's System and generator,
 * each destroyed at once: extra set-up samples for a plain run.
 */
std::uint64_t
fastestSetupNs(const CellSpec &spec, int n)
{
    const SystemConfig cfg = spec.config();
    std::uint64_t best = UINT64_MAX;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t t0 = nowNs();
        System sys(cfg);
        std::unique_ptr<TraceGenerator> gen =
            makeGenerator(spec.profile, spec.scale);
        best = std::min(best, nowNs() - t0);
    }
    return best;
}

CellOutcome
runCell(const CellSpec &spec, Mode mode)
{
    CellOutcome out;
    try {
        const std::uint64_t extra_setup_ns =
            mode == Mode::Plain ? fastestSetupNs(spec, kSetupRepeats - 1)
                                : UINT64_MAX;
        const SystemConfig cfg = spec.config();
        const std::uint64_t t0 = nowNs();
        System sys(cfg);
        std::unique_ptr<TraceGenerator> gen =
            makeGenerator(spec.profile, spec.scale);
        const std::uint64_t t1 = nowNs();

        if (mode == Mode::Plain) {
            out.result = sys.run(*gen);
            out.runNs = nowNs() - t1;
        } else {
            perfbench::LayerGenerator lgen(*gen, out.spans);
            perfbench::LayerBackend lback(sys.backend(), out.spans);
            TraceCpu cpu(sys.hierarchy(), lback,
                         cfg.hierarchy.l1.lineBytes, cfg.cpuBatch);
            const CpuRunResult c = cpu.run(lgen);
            out.runNs = nowNs() - t1;
            out.result = resultOf(sys, c);
            out.l1Hits = c.l1Hits;
            out.l2Hits = c.l2Hits;
            const CacheHierarchy &h = sys.hierarchy();
            out.cacheCycles =
                c.l1Hits * h.hitLatency(HitLevel::L1).value() +
                (c.l2Hits + c.llcMisses) *
                    h.hitLatency(HitLevel::L2).value();

            if (c.references != out.spans.records)
                out.errors.push_back(
                    "retired " + std::to_string(c.references) +
                    " references but generated " +
                    std::to_string(out.spans.records) + " records");
            const std::uint64_t parts = out.spans.computeCycles +
                                        out.cacheCycles +
                                        out.spans.stallCycles;
            if (c.cycles.value() != parts)
                out.errors.push_back(
                    "cycle conservation: " +
                    std::to_string(c.cycles.value()) +
                    " cycles != compute+cache+stall " +
                    std::to_string(parts));
        }
        out.setupNs = std::min(extra_setup_ns, t1 - t0);

        if (OramController *ctl = sys.controller()) {
            if (mode == Mode::Traced) {
                const IntegrityReport rep = checkIntegrity(ctl->oram());
                if (!rep.ok)
                    out.errors.push_back("integrity: " +
                                         rep.violations.front());
            }
            const UnifiedOram &oram = ctl->oram();
            out.realRequests = ctl->stats().realRequests;
            out.ctlWritebacks = ctl->stats().writebacks;
            out.plbHits = oram.plb().hits();
            out.plbMisses = oram.plb().misses();
            out.arenaBytes = oram.engine().tree().arena().bytesResident();
            out.stashMax = oram.engine().stash().occupancy().max();
            out.ring = oram.engine().schemeCounters();
        } else if (const auto *dram =
                       dynamic_cast<const DramBackend *>(&sys.backend())) {
            out.dramBufferHits = dram->prefetchBufferHits();
        }
        out.digest = digestOf(spec, out.result, sys);
    } catch (const std::exception &e) {
        out.errors.push_back(std::string("exception: ") + e.what());
    }
    return out;
}

/** One pass over every cell of a workload. */
struct PassResult
{
    std::vector<CellOutcome> cells;
    std::uint64_t digest = 0;
    /** Sum of the cells' System::run (or wired run) times. */
    double runS = 0.0;
    double setupS = 0.0;
    std::uint64_t refs = 0;
};

/**
 * Host memory-latency probe: dependent pointer chases through every
 * cache line of a 256 KiB buffer, flushed from the caches before each
 * chase, so that each load waits for DRAM. On a shared host the memory
 * system's speed drifts for minutes with other tenants' load, and the
 * ORAM cells' host time drifts with it; this probe, the benchmark's own
 * code, moves with the host and not with the simulator (README.md,
 * Noise).
 */
class MemoryProbe
{
  public:
    MemoryProbe() : next_(kLines * kStride)
    {
        std::vector<std::uint32_t> order(kLines);
        for (std::uint32_t i = 0; i < kLines; ++i)
            order[i] = i;
        std::uint64_t x = 0x5EEDULL;
        for (std::uint32_t i = kLines - 1; i > 0; --i) {
            x = splitmix64(x);
            std::swap(order[i], order[x % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < kLines; ++i)
            next_[order[i] * kStride] = order[(i + 1) % kLines] * kStride;
    }

    /** Mean host ns per load over kChases chases through all lines. */
    double nsPerLoad()
    {
        std::uint64_t ns = 0;
        for (int c = 0; c < kChases; ++c) {
#if defined(__x86_64__) || defined(__i386__)
            for (std::uint32_t i = 0; i < kLines; ++i)
                _mm_clflush(&next_[i * kStride]);
            _mm_mfence();
#endif
            const std::uint64_t t0 = nowNs();
            std::uint32_t at = 0;
            for (std::uint32_t i = 0; i < kLines; ++i)
                at = next_[at];
            ns += nowNs() - t0;
            sink_ = at;
        }
        return static_cast<double>(ns) / (kChases * kLines);
    }

  private:
    static constexpr int kChases = 4;
    static constexpr std::uint32_t kLines = (256u << 10) / 64;
    static constexpr std::uint32_t kStride = 64 / sizeof(std::uint32_t);
    std::vector<std::uint32_t> next_;
    volatile std::uint32_t sink_ = 0;
};

/** Fill @p p's totals and digest from its cells. */
void
summarize(PassResult &p)
{
    Digest d;
    for (const CellOutcome &c : p.cells) {
        d.u64(c.digest);
        p.runS += 1e-9 * static_cast<double>(c.runNs);
        p.setupS += 1e-9 * static_cast<double>(c.setupNs);
        p.refs += c.result.references;
    }
    p.digest = d.h;
}

PassResult
runPass(const WorkloadSpec &w, Mode mode)
{
    PassResult p;
    for (const CellSpec &c : w.cells)
        p.cells.push_back(runCell(c, mode));
    summarize(p);
    return p;
}

/**
 * One plain and one traced pass, interleaved cell by cell so that slow
 * host-speed drift cancels out of the traced/plain ratio.
 */
std::pair<PassResult, PassResult>
runPlainAndTraced(const WorkloadSpec &w)
{
    PassResult plain;
    PassResult traced;
    for (const CellSpec &c : w.cells) {
        plain.cells.push_back(runCell(c, Mode::Plain));
        traced.cells.push_back(runCell(c, Mode::Traced));
    }
    summarize(plain);
    summarize(traced);
    return {std::move(plain), std::move(traced)};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of a value -> count histogram. */
double
quantile(const std::map<std::uint64_t, std::uint64_t> &hist, double q)
{
    std::uint64_t total = 0;
    for (const auto &[v, n] : hist)
        total += n;
    if (total == 0)
        return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (const auto &[v, n] : hist) {
        seen += n;
        if (seen >= std::max<std::uint64_t>(rank, 1))
            return static_cast<double>(v);
    }
    return static_cast<double>(hist.rbegin()->first);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Ordered metric name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void set(const std::string &name, double value, const char *unit)
    {
        items.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
    }
};

/** The cell run for (profile, scheme, engine) in @p pass, or null. */
const CellOutcome *
findCell(const WorkloadSpec &w, const PassResult &pass,
         const std::string &profile, MemScheme scheme, SchemeKind engine)
{
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &c = w.cells[i];
        if (c.profile.name == profile && c.scheme == scheme &&
            (!c.isOram() || c.engine == engine))
            return &pass.cells[i];
    }
    return nullptr;
}

/** Profile names in first-seen order. */
std::vector<std::string>
profilesOf(const WorkloadSpec &w)
{
    std::vector<std::string> out;
    for (const CellSpec &c : w.cells) {
        if (std::find(out.begin(), out.end(), c.profile.name) == out.end())
            out.push_back(c.profile.name);
    }
    return out;
}

double
cyclesOf(const CellOutcome &c)
{
    return static_cast<double>(c.result.cycles.value());
}

/**
 * The paper's figure metrics over @p pass, through the library's
 * figure-axis helpers: means over the workload's profiles (and
 * engines) of the pairwise ratios. 0 where the workload has no such
 * pair of cells. Failed cells (counted by the Tally) are left out.
 */
void
addFigureMetrics(const WorkloadSpec &w, const PassResult &pass,
                 Metrics &m)
{
    std::vector<double> dyn_su, stat_su, dyn_acc, overhead, ring_x, pre_su;
    const auto cell = [&](const std::string &prof, MemScheme s,
                          SchemeKind eng) -> const SimResult * {
        const CellOutcome *c = findCell(w, pass, prof, s, eng);
        return c && c->ok() ? &c->result : nullptr;
    };
    for (const std::string &prof : profilesOf(w)) {
        for (SchemeKind eng : {SchemeKind::Path, SchemeKind::Ring}) {
            const SimResult *oram = cell(prof, MemScheme::OramBaseline, eng);
            const SimResult *stat = cell(prof, MemScheme::OramStatic, eng);
            const SimResult *dyn = cell(prof, MemScheme::OramDynamic, eng);
            if (oram && dyn) {
                dyn_su.push_back(metrics::speedup(*oram, *dyn));
                dyn_acc.push_back(metrics::normMemAccesses(*oram, *dyn));
            }
            if (oram && stat)
                stat_su.push_back(metrics::speedup(*oram, *stat));
        }
        const SimResult *dram = cell(prof, MemScheme::Dram, SchemeKind::Path);
        const SimResult *pre =
            cell(prof, MemScheme::DramPrefetch, SchemeKind::Path);
        const SimResult *oram =
            cell(prof, MemScheme::OramBaseline, SchemeKind::Path);
        if (dram && oram)
            overhead.push_back(metrics::normCompletionTime(*dram, *oram));
        if (dram && pre)
            pre_su.push_back(metrics::speedup(*dram, *pre));
        for (MemScheme s : {MemScheme::OramBaseline, MemScheme::OramStatic,
                            MemScheme::OramDynamic}) {
            const SimResult *path = cell(prof, s, SchemeKind::Path);
            const SimResult *ring = cell(prof, s, SchemeKind::Ring);
            if (path && ring)
                ring_x.push_back(metrics::normCompletionTime(*path, *ring));
        }
    }
    m.set("dyn_speedup_pct", 100.0 * mean(dyn_su), "%");
    m.set("stat_speedup_pct", 100.0 * mean(stat_su), "%");
    m.set("dyn_norm_acc", mean(dyn_acc), "ratio");
    m.set("oram_overhead_x", mean(overhead), "x");
    m.set("ring_path_cycles_x", mean(ring_x), "x");
    m.set("dram_pre_speedup_pct", 100.0 * mean(pre_su), "%");
}

/**
 * Paper-shape check on the Path ORAM cells (the paper's protocol)
 * that holds at the workload's trace length: dyn never slower than
 * the baseline ORAM. Pairs with a failed cell are skipped; the Tally
 * already counts it. @return the failed checks.
 */
int
shapeFailures(const WorkloadSpec &w, const PassResult &pass)
{
    if (!w.shapeChecks)
        return 0;
    int failed = 0;
    const auto cell = [&](const std::string &prof,
                          MemScheme s) -> const CellOutcome * {
        const CellOutcome *c = findCell(w, pass, prof, s, SchemeKind::Path);
        return c && c->ok() ? c : nullptr;
    };
    for (const std::string &prof : profilesOf(w)) {
        const CellOutcome *oram = cell(prof, MemScheme::OramBaseline);
        const CellOutcome *dyn = cell(prof, MemScheme::OramDynamic);
        if (oram && dyn && cyclesOf(*dyn) > cyclesOf(*oram)) {
            std::fprintf(stderr, "shape: %s dyn slower than oram: %.0f > %.0f\n",
                         prof.c_str(), cyclesOf(*dyn), cyclesOf(*oram));
            ++failed;
        }
    }
    return failed;
}

/** Simulated demand latency of the workload's latency cells. */
void
addLatencyMetrics(const WorkloadSpec &w, const PassResult &pass,
                  Metrics &m)
{
    std::map<std::uint64_t, std::uint64_t> hist;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (w.cells[i].scheme != w.latencyScheme)
            continue;
        for (const auto &[lat, n] : pass.cells[i].spans.latencyCounts)
            hist[lat] += n;
    }
    std::uint64_t demands = 0;
    for (const auto &[lat, n] : hist)
        demands += n;
    std::printf("# latency samples: %llu demands\n",
                static_cast<unsigned long long>(demands));
    m.set("lat_p50_cyc", quantile(hist, 0.50), "cycles");
    m.set("lat_p999_cyc", quantile(hist, 0.999), "cycles");
}

/** Per-layer metrics of one traced pass (see README.md). */
Metrics
layerMetrics(const WorkloadSpec &w, const PassResult &pass)
{
    double oram_demand_ns = 0, oram_demands = 0, wb_ns = 0, wb_blocks = 0;
    double touch_ns = 0, touches = 0, oram_ns = 0, dram_ns = 0, dram_demands = 0;
    double fill_ns = 0, self_ns = 0, setup_ns = 0, stash_sum = 0, stash_max = 0;
    double real_requests = 0, oram_cells = 0, arena_max = 0;
    perfbench::NsHistogram demand_hist;
    std::uint64_t records = 0, paths = 0, posmap = 0, bg = 0, merges = 0;
    std::uint64_t breaks = 0, pf_hits = 0, pf_misses = 0, plb_hits = 0;
    std::uint64_t plb_misses = 0, stall = 0, compute = 0, cache = 0;
    std::uint64_t l1 = 0, l2 = 0, llc = 0, wbs = 0, buf_hits = 0;
    SchemeCounters ring{};

    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellOutcome &c = pass.cells[i];
        const LayerSpans &s = c.spans;
        const SimResult &r = c.result;
        fill_ns += static_cast<double>(s.fillNs);
        self_ns += static_cast<double>(c.runNs) -
                   static_cast<double>(s.fillNs + s.backendNs());
        setup_ns += static_cast<double>(c.setupNs);
        records += s.records;
        stall += s.stallCycles;
        compute += s.computeCycles;
        cache += c.cacheCycles;
        l1 += c.l1Hits;
        l2 += c.l2Hits;
        llc += r.llcMisses;
        wbs += r.writebacks;
        if (!w.cells[i].isOram()) {
            dram_ns += static_cast<double>(s.demandNs);
            dram_demands += static_cast<double>(s.demands);
            buf_hits += c.dramBufferHits;
            continue;
        }
        oram_cells += 1;
        oram_demand_ns += static_cast<double>(s.demandNs);
        oram_demands += static_cast<double>(s.demands);
        demand_hist.merge(s.demandNsHist);
        wb_ns += static_cast<double>(s.writebackNs);
        wb_blocks += static_cast<double>(s.writebackBlocks);
        touch_ns += static_cast<double>(s.touchNs);
        touches += static_cast<double>(s.touches);
        oram_ns += static_cast<double>(s.backendNs());
        paths += r.pathAccesses;
        posmap += r.posMapAccesses;
        bg += r.bgEvictions;
        real_requests += static_cast<double>(c.realRequests + c.ctlWritebacks);
        merges += r.merges;
        breaks += r.breaks;
        pf_hits += r.prefetchHits;
        pf_misses += r.prefetchMisses;
        plb_hits += c.plbHits;
        plb_misses += c.plbMisses;
        stash_sum += r.avgStashOccupancy;
        stash_max = std::max(stash_max, c.stashMax);
        arena_max = std::max(arena_max, static_cast<double>(c.arenaBytes));
        ring.bucketReads += c.ring.bucketReads;
        ring.dummyReads += c.ring.dummyReads;
        ring.earlyReshuffles += c.ring.earlyReshuffles;
    }

    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    Metrics m;
    m.set("core.demand.ns", ratio(oram_demand_ns, oram_demands), "ns");
    m.set("core.demand.ns_p50", demand_hist.quantile(0.50), "ns");
    m.set("core.demand.ns_p99", demand_hist.quantile(0.99), "ns");
    m.set("core.writeback.ns", ratio(wb_ns, wb_blocks), "ns");
    m.set("core.touch.ns", ratio(touch_ns, touches), "ns");
    m.set("core.ns_per_path", ratio(oram_ns, d(paths)), "ns");
    m.set("core.path_accesses", d(paths), "count");
    m.set("core.posmap_paths", d(posmap), "count");
    m.set("core.bg_evictions", d(bg), "count");
    m.set("core.bg_per_request", ratio(d(bg), real_requests), "ratio");
    m.set("core.policy.merges", d(merges), "count");
    m.set("core.policy.breaks", d(breaks), "count");
    m.set("core.policy.prefetch_hits", d(pf_hits), "count");
    m.set("core.policy.prefetch_misses", d(pf_misses), "count");
    m.set("core.policy.prefetch_useful_ratio",
          ratio(d(pf_hits), d(pf_hits + pf_misses)), "ratio");
    m.set("core.demand.stall_cycles", d(stall), "cycles");
    m.set("oram.ring.bucket_reads", d(ring.bucketReads), "count");
    m.set("oram.ring.dummy_reads", d(ring.dummyReads), "count");
    m.set("oram.ring.early_reshuffles", d(ring.earlyReshuffles), "count");
    m.set("oram.plb_hit_ratio", ratio(d(plb_hits), d(plb_hits + plb_misses)),
          "ratio");
    m.set("oram.stash_occ_mean", ratio(stash_sum, oram_cells), "blocks");
    m.set("oram.stash_occ_max", stash_max, "blocks");
    m.set("oram.arena_bytes_resident", arena_max, "bytes");
    m.set("trace.fill_ns", ratio(fill_ns, d(records)), "ns");
    m.set("trace.records", d(records), "count");
    m.set("cpu.self_ns", ratio(self_ns, d(records)), "ns");
    m.set("cpu.l1_hits", d(l1), "count");
    m.set("cpu.l2_hits", d(l2), "count");
    m.set("cpu.llc_misses", d(llc), "count");
    m.set("cpu.writebacks", d(wbs), "count");
    m.set("cpu.compute_cycles", d(compute), "cycles");
    m.set("cpu.cache_cycles", d(cache), "cycles");
    m.set("mem.dram.ns", ratio(dram_ns, dram_demands), "ns");
    m.set("mem.dram.prefetch_buffer_hits", d(buf_hits), "count");
    m.set("sim.setup_ns", ratio(setup_ns, d(w.cells.size())), "ns");
    return m;
}

/** Medians, key by key, of metric sets with the same layout. */
Metrics
medianMetrics(const std::vector<Metrics> &sets)
{
    Metrics out;
    if (sets.empty())
        return out;
    for (std::size_t k = 0; k < sets.front().items.size(); ++k) {
        std::vector<double> vals;
        for (const Metrics &s : sets)
            vals.push_back(s.items[k].second.first);
        const auto &[name, vu] = sets.front().items[k];
        out.set(name, median(vals), vu.second.c_str());
    }
    return out;
}

/** Env variables that change simulated behaviour or drive mode. */
bool
envIsClean()
{
    static const char *const kExact[] = {
        "PRORAM_SCHEME",       "PRORAM_BATCH",        "PRORAM_EVICT_KERNEL",
        "PRORAM_WORKERS",      "PRORAM_BENCH_SCALE",  "PRORAM_BENCH_THREADS",
        "PRORAM_AUDIT",        "PRORAM_RING_S",       "PRORAM_RING_A",
        "PRORAM_STASH_SHARDS", "PRORAM_DEDUP",        "PRORAM_METRICS_FILE",
    };
    static const char *const kPrefix[] = {"PRORAM_ARENA", "PRORAM_TRACE"};
    bool clean = true;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv(*e);
        const std::string key = kv.substr(0, kv.find('='));
        bool bad = false;
        for (const char *x : kExact)
            bad = bad || key == x;
        for (const char *x : kPrefix)
            bad = bad || key.rfind(x, 0) == 0;
        if (bad) {
            std::fprintf(stderr, "refusing to run: %s is set\n", key.c_str());
            clean = false;
        }
    }
    return clean;
}

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss survives execve, so it would report the parent's peak
 * when that was larger.)
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::atof(line + 6);
    }
    std::fclose(f);
    return kib / 1024.0;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < m.items.size(); ++i) {
        const auto &[name, vu] = m.items[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), vu.first,
                    vu.second.c_str());
    }
    std::printf("}}\n");
}

/** Tallies of cell checks across the passes of one run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const WorkloadSpec &w, const PassResult &p)
    {
        for (std::size_t i = 0; i < p.cells.size(); ++i) {
            ++attempted;
            if (!p.cells[i].ok()) {
                ++failed;
                for (const std::string &e : p.cells[i].errors)
                    std::fprintf(stderr, "cell %s failed: %s\n",
                                 w.cells[i].label().c_str(), e.c_str());
            }
        }
    }

    /** A pass whose digest differs from the reference fails whole. */
    void digestMismatch(const WorkloadSpec &w, const PassResult &p,
                        std::uint64_t want, const char *what)
    {
        if (p.digest == want)
            return;
        std::fprintf(stderr, "digest mismatch (%s): %016llx != %016llx\n",
                     what, static_cast<unsigned long long>(p.digest),
                     static_cast<unsigned long long>(want));
        failed += w.cells.size();
    }
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: proram_perfbench --workload "
                 "{dbms,dram_baseline} [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::atof(val);
        else if (key == "--trace")
            trace = std::atoi(val);
        else
            return usage();
    }
    if (argc % 2 == 0 || (trace != 0 && trace != 1) || seconds <= 0)
        return usage();
    if (!envIsClean())
        return 3;

    const WorkloadSpec w = makeWorkload(workload, seed);
    if (w.cells.empty())
        return usage();

    std::printf("# host: cpus=%u compiler=%s build=%s tracing=%d\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PRORAM_TRACE_ENABLED);

    Tally tally;
    const std::uint64_t start = nowNs();
    const auto elapsed = [start] {
        return 1e-9 * static_cast<double>(nowNs() - start);
    };
    Metrics out;

    if (trace == 0) {
        // Check pass, traced: every check; also the warm-up for the
        // timed passes, whose digests must match it. The probes'
        // host-time samples are dropped cell by cell so that they do
        // not raise peak_rss_mb.
        PassResult check;
        for (const CellSpec &c : w.cells) {
            check.cells.push_back(runCell(c, Mode::Traced));
            check.cells.back().spans = LayerSpans{};
        }
        summarize(check);
        tally.add(w, check);
        tally.failed += static_cast<std::uint64_t>(shapeFailures(w, check));
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            std::fprintf(stderr, "cell %-24s %10llu refs %8.1f ms\n",
                         w.cells[i].label().c_str(),
                         static_cast<unsigned long long>(
                             check.cells[i].result.references),
                         1e-6 * static_cast<double>(check.cells[i].runNs));
        std::printf("# digest %s %016llx\n", w.name.c_str(),
                    static_cast<unsigned long long>(check.digest));

        std::size_t passes = 0;
        std::vector<double> raw_rate, load_ns;
        std::vector<std::vector<double>> scaled_ns(w.cells.size());
        std::vector<std::uint64_t> best_ns(w.cells.size(), UINT64_MAX);
        std::vector<std::uint64_t> best_setup_ns(w.cells.size(), UINT64_MAX);
        const double t0 = elapsed();
        double last = 0.0;
        while (passes < kMinPasses ||
               elapsed() - t0 + last <= seconds) {
            const double before = elapsed();
            const PassResult p = runPass(w, Mode::Plain);
            last = elapsed() - before;
            tally.add(w, p);
            tally.digestMismatch(w, p, check.digest, "plain vs traced");
            ++passes;
            const double rate = ratio(static_cast<double>(p.refs), p.runS);
            // Built per pass, in memory the cells just freed, so that it
            // does not raise peak_rss_mb.
            const double ns = MemoryProbe().nsPerLoad();
            raw_rate.push_back(rate);
            load_ns.push_back(ns);
            for (std::size_t i = 0; i < p.cells.size(); ++i) {
                const CellOutcome &c = p.cells[i];
                best_setup_ns[i] = std::min(best_setup_ns[i], c.setupNs);
                best_ns[i] = std::min(best_ns[i], c.runNs);
                scaled_ns[i].push_back(static_cast<double>(c.runNs) *
                                       kRefLoadNs / ns);
            }
            std::fprintf(stderr,
                         "pass %zu: setup %.4f s, %.0f refs/s, "
                         "probe %.1f ns/load\n",
                         passes, p.setupS, rate, ns);
        }
        std::printf("# timed passes: %zu\n", passes);
        std::printf("# unscaled refs/s (median pass): %.0f\n",
                    median(raw_rate));
        std::printf("# probe ns/load (median pass): %.1f\n",
                    median(load_ns));
        // A set-up is too short for the probe to track, so setup_s
        // takes each cell's fastest set-up: the least disturbed one.
        double setup_s = 0.0;
        for (std::uint64_t ns : best_setup_ns)
            setup_s += 1e-9 * static_cast<double>(ns);
        out.set("setup_s", setup_s, "s");
        // An ORAM cell's working set (tree, stash, position map) spills
        // out of L2, so its run time follows the host's memory latency:
        // each run is scaled by the probe taken right after its pass,
        // and the cell counts with the median. A DRAM cell's working set
        // fits in L2 and its time does not follow the probe; it counts
        // with its fastest run, the least disturbed one.
        double run_s = 0.0;
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            run_s += 1e-9 * (w.cells[i].isOram()
                                 ? median(scaled_ns[i])
                                 : static_cast<double>(best_ns[i]));
        out.set("refs_per_s", ratio(static_cast<double>(check.refs), run_s),
                "1/s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        std::vector<Metrics> layers;
        std::vector<double> plain_run, traced_run;
        Metrics figures;
        double last = 0.0;
        while (layers.size() < 2 || elapsed() + last <= seconds) {
            const double before = elapsed();
            const auto [plain, traced] = runPlainAndTraced(w);
            last = elapsed() - before;
            tally.add(w, plain);
            tally.add(w, traced);
            tally.digestMismatch(w, traced, plain.digest,
                                 "traced vs untraced");
            if (layers.empty()) {
                tally.failed +=
                    static_cast<std::uint64_t>(shapeFailures(w, traced));
                addFigureMetrics(w, traced, figures);
                addLatencyMetrics(w, traced, figures);
                std::printf("# digest %s %016llx\n", w.name.c_str(),
                            static_cast<unsigned long long>(traced.digest));
            }
            layers.push_back(layerMetrics(w, traced));
            plain_run.push_back(plain.runS);
            traced_run.push_back(traced.runS);
        }
        out = medianMetrics(layers);
        out.items.insert(out.items.end(), figures.items.begin(),
                         figures.items.end());
        out.set("sim.trace_overhead_pct",
                100.0 * (ratio(median(traced_run), median(plain_run)) - 1.0),
                "%");
    }

    printResult(tally.failed == 0, tally.attempted, tally.failed, out);
    return 0;
}
