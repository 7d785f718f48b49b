/**
 * @file
 * Fig. 14: cacheline (= ORAM block) size sweep: 64/128/256 B. The
 * qualitative behaviour of the super block schemes is unchanged
 * across block sizes (Sec. 5.5.5).
 */

#include <cstdio>

#include "common.hh"

using namespace proram;

namespace
{

int
run()
{
    bench::banner(
        "Figure 14: Cacheline size sweep (norm. completion time vs "
        "DRAM at the same line size)",
        "scheme ordering stable across 64/128/256 B lines");

    const Experiment exp = bench::defaultExperiment();

    for (const char *name : {"ocean_c", "volrend"}) {
        std::printf("--- %s ---\n", name);
        stats::Table t({"line(B)", "oram", "stat", "dyn"});
        for (std::uint32_t line : {64u, 128u, 256u}) {
            // The workload must stride at the line size or adjacent
            // blocks are not adjacent lines.
            BenchmarkProfile prof = profileByName(name);
            prof.blockBytes = line;
            auto gen = [&] {
                return makeGenerator(prof, exp.traceScale());
            };
            auto tweak = [&](SystemConfig &c) { c.setLineBytes(line); };
            const auto dram = exp.runWith(MemScheme::Dram, tweak, gen);
            const auto oram =
                exp.runWith(MemScheme::OramBaseline, tweak, gen);
            const auto stat =
                exp.runWith(MemScheme::OramStatic, tweak, gen);
            const auto dyn =
                exp.runWith(MemScheme::OramDynamic, tweak, gen);
            t.row()
                .addInt(line)
                .add(metrics::normCompletionTime(dram, oram), 2)
                .add(metrics::normCompletionTime(dram, stat), 2)
                .add(metrics::normCompletionTime(dram, dyn), 2);
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
