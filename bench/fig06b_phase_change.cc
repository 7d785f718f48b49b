/**
 * @file
 * Fig. 6b: phase-change synthetic benchmark. Sm/Am = static/adaptive
 * merging threshold; Nb/Ab = no breaking / adaptive breaking. The
 * breaking variants adapt to the phases and win (Sec. 5.3.2).
 */

#include <cstdio>

#include "common.hh"
#include "trace/synthetic.hh"

using namespace proram;

namespace
{

std::unique_ptr<TraceGenerator>
phaseGen()
{
    SyntheticConfig c;
    c.footprintBlocks = 1ULL << 14;
    c.numAccesses = static_cast<std::uint64_t>(
        160000 * proram::benchScaleFromEnv());
    c.phaseLength = c.numAccesses / 6; // six phases
    c.computeCycles = 4;
    c.seed = 6;
    return std::make_unique<SyntheticGenerator>(c);
}

int
run()
{
    bench::banner(
        "Figure 6b: Phase-change behaviour (Sm/Am merge x Nb/Ab break)",
        "am_ab best: breaking adapts to phases, cutting memory "
        "accesses and the prefetch miss rate vs the Nb variants");

    // Z=3 default: the regime where stale super blocks cost
    // background evictions, so breaking pays (EXPERIMENTS.md).
    SystemConfig cfg = defaultSystemConfig();
    const Experiment exp(cfg, 1.0);

    const auto oram =
        exp.runGenerator(MemScheme::OramBaseline, phaseGen);

    stats::Table t({"variant", "speedup", "norm.mem.accesses",
                    "prefetch.missrate", "breaks"});

    const auto stat = exp.runGenerator(MemScheme::OramStatic, phaseGen);
    t.row()
        .add("static")
        .addPct(metrics::speedup(oram, stat))
        .add(metrics::normMemAccesses(oram, stat), 3)
        .add(stat.prefetchMissRate(), 3)
        .addInt(stat.breaks);

    struct Variant
    {
        const char *name;
        DynamicPolicyConfig::MergeThreshold merge;
        DynamicPolicyConfig::BreakMode brk;
    };
    const Variant variants[] = {
        {"sm_nb", DynamicPolicyConfig::MergeThreshold::Static,
         DynamicPolicyConfig::BreakMode::None},
        {"am_nb", DynamicPolicyConfig::MergeThreshold::Adaptive,
         DynamicPolicyConfig::BreakMode::None},
        {"am_ab", DynamicPolicyConfig::MergeThreshold::Adaptive,
         DynamicPolicyConfig::BreakMode::Adaptive},
    };
    for (const Variant &v : variants) {
        const auto res = exp.runWith(
            MemScheme::OramDynamic,
            [&](SystemConfig &c) {
                c.dynamic.mergeThreshold = v.merge;
                c.dynamic.breakMode = v.brk;
            },
            phaseGen);
        t.row()
            .add(v.name)
            .addPct(metrics::speedup(oram, res))
            .add(metrics::normMemAccesses(oram, res), 3)
            .add(res.prefetchMissRate(), 3)
            .addInt(res.breaks);
    }

    std::printf("%s\n", t.str().c_str());
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}
