/**
 * @file
 * Fig. 15: timing-channel protection via periodic ORAM accesses
 * (Oint = 100). Speedups are relative to the *periodic* baseline
 * ORAM; the non-periodic baseline ("oram") is shown for comparison.
 * Super block gains survive periodicity (Sec. 5.6).
 */

#include <cstdio>
#include <vector>

#include "common.hh"

using namespace proram;

namespace
{

void
runSuite(const Experiment &exp, const char *title,
         const std::vector<BenchmarkProfile> &suite)
{
    std::printf("--- %s ---\n", title);
    stats::Table t({"bench", "oram", "stat_intvl", "dyn_intvl"});
    std::vector<double> o_all, s_all, d_all, s_mem, d_mem;

    auto periodic = [](SystemConfig &c) {
        c.controller.periodic.enabled = true;
        c.controller.periodic.oInt = Cycles{100};
    };

    for (const auto &prof : suite) {
        auto gen = [&] { return makeGenerator(prof, exp.traceScale()); };
        const auto base =
            exp.runWith(MemScheme::OramBaseline, periodic, gen);
        const auto oram =
            exp.runGenerator(MemScheme::OramBaseline, gen);
        const auto stat =
            exp.runWith(MemScheme::OramStatic, periodic, gen);
        const auto dyn =
            exp.runWith(MemScheme::OramDynamic, periodic, gen);

        const double og = metrics::speedup(base, oram);
        const double sg = metrics::speedup(base, stat);
        const double dg = metrics::speedup(base, dyn);
        o_all.push_back(og);
        s_all.push_back(sg);
        d_all.push_back(dg);
        if (prof.memoryIntensive) {
            s_mem.push_back(sg);
            d_mem.push_back(dg);
        }
        t.row().add(prof.name).addPct(og).addPct(sg).addPct(dg);
    }
    t.row()
        .add("avg")
        .addPct(mean(o_all))
        .addPct(mean(s_all))
        .addPct(mean(d_all));
    if (!s_mem.empty()) {
        t.row()
            .add("mem_avg")
            .add("")
            .addPct(mean(s_mem))
            .addPct(mean(d_mem));
    }
    std::printf("%s\n", t.str().c_str());
}

int
run()
{
    bench::banner(
        "Figure 15: Periodic ORAM accesses (Oint = 100 cycles)",
        "periodicity costs only a few percent (oram column small); "
        "dyn_intvl keeps its gain under periodicity");

    const Experiment exp = bench::defaultExperiment();
    runSuite(exp, "Fig. 15a: Splash2", splash2Suite());
    runSuite(exp, "Fig. 15b: SPEC06", spec06Suite());
    runSuite(exp, "Fig. 15c: DBMS", dbmsSuite());
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}
