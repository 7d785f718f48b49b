/**
 * @file
 * Fig. 9: prefetch miss rate of the static vs dynamic super block
 * schemes (Splash2 and SPEC06). The dynamic scheme merges only blocks
 * with observed locality, so it prefetches less blindly and misses
 * less. water_* are omitted as in the paper (too compute bound).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"

using namespace proram;

namespace
{

void
runSuite(const Experiment &exp, const char *title,
         const std::vector<BenchmarkProfile> &suite,
         const std::vector<std::string> &skip)
{
    std::printf("--- %s ---\n", title);
    stats::Table t({"bench", "stat.missrate", "dyn.missrate"});
    std::vector<double> stat_all, dyn_all;
    for (const auto &prof : suite) {
        bool skipped = false;
        for (const auto &s : skip)
            skipped = skipped || s == prof.name;
        if (skipped)
            continue;
        const auto stat = exp.runBenchmark(MemScheme::OramStatic, prof);
        const auto dyn = exp.runBenchmark(MemScheme::OramDynamic, prof);
        stat_all.push_back(stat.prefetchMissRate());
        dyn_all.push_back(dyn.prefetchMissRate());
        t.row()
            .add(prof.name)
            .add(stat_all.back(), 3)
            .add(dyn_all.back(), 3);
    }
    t.row().add("avg").add(mean(stat_all), 3).add(mean(dyn_all), 3);
    std::printf("%s\n", t.str().c_str());
}

int
run()
{
    bench::banner(
        "Figure 9: Prefetch miss rate, static vs dynamic super blocks",
        "dyn lowers the average miss rate substantially vs stat "
        "(paper: 48.6% -> 37.1% Splash2, 55.5% -> 34.8% SPEC06)");

    const Experiment exp = bench::defaultExperiment();
    runSuite(exp, "Fig. 9a: Splash2", splash2Suite(),
             {"water_ns", "water_s"});
    runSuite(exp, "Fig. 9b: SPEC06", spec06Suite(), {});
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}
