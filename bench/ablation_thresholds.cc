/**
 * @file
 * Ablation study of PrORAM design choices beyond the paper's figures:
 *  1. adaptive vs static thresholding (Sec. 4.4) on mixed workloads;
 *  2. merge-threshold hysteresis (the +sbsize term) on phase changes;
 *  3. PLB capacity (the Unified ORAM recursion cost).
 */

#include <cstdio>

#include <algorithm>
#include <iterator>

#include "common.hh"
#include "trace/synthetic.hh"

using namespace proram;

namespace
{

std::unique_ptr<TraceGenerator>
mixedGen(bool phases)
{
    // Fixed-size workload: the learning dynamics under study need a
    // minimum trace length, so PRORAM_BENCH_SCALE only shortens below
    // 1.0 mildly (floor at 0.5).
    const double scale =
        std::max(0.5, proram::benchScaleFromEnv());
    SyntheticConfig c;
    c.footprintBlocks = 1ULL << 14;
    c.numAccesses = static_cast<std::uint64_t>(120000 * scale);
    c.localityFraction = 0.6;
    c.phaseLength = phases ? c.numAccesses / 6 : 0;
    c.computeCycles = 4;
    c.seed = 9;
    return std::make_unique<SyntheticGenerator>(c);
}

int
run()
{
    bench::banner(
        "Ablation: thresholding mode, hysteresis, PLB size",
        "adaptive thresholding and the PLB each contribute; removing "
        "them costs performance or memory accesses");

    const Experiment exp = bench::defaultExperiment();

    // 1. Thresholding mode.
    {
        std::printf("--- Thresholding mode (60%% locality) ---\n");
        auto gen = [] { return mixedGen(false); };
        const DynamicPolicyConfig::MergeThreshold modes[] = {
            DynamicPolicyConfig::MergeThreshold::Static,
            DynamicPolicyConfig::MergeThreshold::Adaptive};

        std::vector<Experiment::GridCell> cells;
        cells.push_back(
            bench::generatorCell(exp, MemScheme::OramBaseline, gen));
        for (auto mode : modes) {
            cells.push_back([&exp, mode, gen] {
                return exp.runWith(
                    MemScheme::OramDynamic,
                    [mode](SystemConfig &c) {
                        c.dynamic.mergeThreshold = mode;
                    },
                    gen);
            });
        }
        const auto results = exp.runGrid(cells);

        const auto &oram = results[0];
        stats::Table t({"mode", "speedup", "norm.acc", "bg"});
        for (std::size_t i = 0; i < std::size(modes); ++i) {
            const auto &res = results[1 + i];
            t.row()
                .add(modes[i] ==
                             DynamicPolicyConfig::MergeThreshold::Static
                         ? "static(2n)"
                         : "adaptive(Eq.1)")
                .addPct(metrics::speedup(oram, res))
                .add(metrics::normMemAccesses(oram, res), 3)
                .addInt(res.bgEvictions);
        }
        std::printf("%s\n", t.str().c_str());
    }

    // 2. Hysteresis: compare cBreak == cMerge vs a deliberately
    //    inverted configuration that breaks eagerly (thrash-prone)
    //    under phase changes.
    {
        std::printf("--- Break eagerness under phase change ---\n");
        auto gen = [] { return mixedGen(true); };
        struct Row
        {
            const char *name;
            double cm, cb;
        };
        const Row rows[] = {Row{"balanced (m1b1)", 1, 1},
                            Row{"eager break (m1b8)", 1, 8},
                            Row{"lazy break (m8b1)", 8, 1}};

        std::vector<Experiment::GridCell> cells;
        cells.push_back(
            bench::generatorCell(exp, MemScheme::OramBaseline, gen));
        for (const Row &r : rows) {
            cells.push_back([&exp, r, gen] {
                return exp.runWith(
                    MemScheme::OramDynamic,
                    [r](SystemConfig &c) {
                        c.dynamic.cMerge = r.cm;
                        c.dynamic.cBreak = r.cb;
                    },
                    gen);
            });
        }
        const auto results = exp.runGrid(cells);

        const auto &oram = results[0];
        stats::Table t(
            {"config", "speedup", "merges", "breaks", "missrate"});
        for (std::size_t i = 0; i < std::size(rows); ++i) {
            const auto &res = results[1 + i];
            t.row()
                .add(rows[i].name)
                .addPct(metrics::speedup(oram, res))
                .addInt(res.merges)
                .addInt(res.breaks)
                .add(res.prefetchMissRate(), 3);
        }
        std::printf("%s\n", t.str().c_str());
    }

    // 3. PLB capacity: recursion cost of the unified ORAM.
    {
        std::printf("--- PLB capacity (pos-map recursion cost) ---\n");
        auto gen = [] { return mixedGen(false); };
        const std::uint32_t plbs[] = {1u, 8u, 32u, 64u, 256u};

        std::vector<Experiment::GridCell> cells;
        for (std::uint32_t plb : plbs) {
            cells.push_back([&exp, plb, gen] {
                return exp.runWith(
                    MemScheme::OramDynamic,
                    [plb](SystemConfig &c) { c.oram.plbEntries = plb; },
                    gen);
            });
        }
        const auto results = exp.runGrid(cells);

        stats::Table t({"plb.entries", "cycles(norm)", "posmap.paths",
                        "total.paths"});
        const SimResult &base = results[0]; // plb == 1
        for (std::size_t i = 0; i < std::size(plbs); ++i) {
            const auto &res = results[i];
            t.row()
                .addInt(plbs[i])
                .add(metrics::normCompletionTime(base, res), 3)
                .addInt(res.posMapAccesses)
                .addInt(res.pathAccesses);
        }
        std::printf("%s\n", t.str().c_str());
    }
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}
