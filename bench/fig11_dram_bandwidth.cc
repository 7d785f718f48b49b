/**
 * @file
 * Fig. 11: DRAM bandwidth sweep (4/8/16 GB/s). Completion time is
 * normalized to the insecure DRAM system at the same bandwidth. The
 * dynamic scheme's gain persists across bandwidths for memory-
 * intensive benchmarks; on low-locality benchmarks dyn tracks the
 * baseline while stat lags.
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
        "Figure 11: DRAM bandwidth sweep (norm. completion time vs "
        "DRAM at the same bandwidth)",
        "ocean_c: dyn < stat < oram at every bandwidth; volrend: "
        "dyn ~ oram < stat");

    const Experiment exp = bench::defaultExperiment();

    for (const char *name : {"ocean_c", "volrend"}) {
        const auto &prof = profileByName(name);
        std::printf("--- %s ---\n", name);
        stats::Table t({"bw(GB/s)", "oram", "stat", "dyn"});
        for (double bw : {4.0, 8.0, 16.0}) {
            auto tweak = [&](SystemConfig &c) {
                c.setDramBandwidthGBs(bw);
            };
            auto gen = [&] {
                return makeGenerator(prof, exp.traceScale());
            };
            const auto dram =
                exp.runWith(MemScheme::Dram, tweak, gen);
            const auto oram =
                exp.runWith(MemScheme::OramBaseline, tweak, gen);
            const auto stat =
                exp.runWith(MemScheme::OramStatic, tweak, gen);
            const auto dyn =
                exp.runWith(MemScheme::OramDynamic, tweak, gen);
            t.row()
                .add(bw, 0)
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
