/**
 * @file
 * Fig. 12: stash size sweep. The baseline barely cares (its
 * background-eviction rate is already low); super block schemes add
 * stash pressure and benefit from a larger stash - the dynamic
 * scheme keeps most of its gain even with a small stash.
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
        "Figure 12: Stash size sweep (norm. completion time vs DRAM)",
        "oram flat; stat/dyn improve with stash size; dyn good even "
        "at small stash sizes (Sec. 5.5.3)");

    const Experiment exp = bench::defaultExperiment();

    for (const char *name : {"ocean_c", "volrend"}) {
        const auto &prof = profileByName(name);
        auto gen = [&] { return makeGenerator(prof, exp.traceScale()); };
        const auto dram = exp.runGenerator(MemScheme::Dram, gen);

        std::printf("--- %s ---\n", name);
        stats::Table t(
            {"stash", "oram", "stat", "dyn", "stat.bg", "dyn.bg"});
        for (std::uint32_t stash : {25u, 50u, 100u, 200u, 300u, 500u}) {
            auto tweak = [&](SystemConfig &c) {
                c.oram.stashCapacity = stash;
            };
            const auto oram =
                exp.runWith(MemScheme::OramBaseline, tweak, gen);
            const auto stat =
                exp.runWith(MemScheme::OramStatic, tweak, gen);
            const auto dyn =
                exp.runWith(MemScheme::OramDynamic, tweak, gen);
            t.row()
                .addInt(stash)
                .add(metrics::normCompletionTime(dram, oram), 2)
                .add(metrics::normCompletionTime(dram, stat), 2)
                .add(metrics::normCompletionTime(dram, dyn), 2)
                .addInt(stat.bgEvictions)
                .addInt(dyn.bgEvictions);
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
