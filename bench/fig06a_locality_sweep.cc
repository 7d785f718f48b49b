/**
 * @file
 * Fig. 6a: synthetic locality sweep (Z = 4). Static super blocks lose
 * at low locality and win at high locality; the dynamic scheme tracks
 * the baseline at zero locality and the static scheme at full
 * locality (Sec. 5.3.1).
 */

#include <cstdio>

#include "common.hh"
#include "trace/synthetic.hh"

using namespace proram;

namespace
{

int
run()
{
    bench::banner(
        "Figure 6a: Sweep of the percentage of data with locality",
        "stat < 0 at low locality, rising with locality; dyn >= oram "
        "everywhere, matching stat at 100%");

    // The paper runs this sweep at Z=4 to accentuate differences;
    // in this simulator's calibration the super-block-pressure regime
    // is Z=3 (the Table 1 default), so we sweep there - see
    // EXPERIMENTS.md.
    SystemConfig cfg = defaultSystemConfig();
    const Experiment exp(cfg, benchScaleFromEnv());

    const std::vector<double> fractions = {0.0, 0.2, 0.4,
                                           0.6, 0.8, 1.0};
    std::vector<Experiment::GridCell> cells;
    for (double f : fractions) {
        auto gen = [f] {
            SyntheticConfig c;
            c.footprintBlocks = 1ULL << 14;
            c.numAccesses = static_cast<std::uint64_t>(
                60000 * benchScaleFromEnv());
            c.localityFraction = f;
            c.computeCycles = 4;
            c.seed = 3;
            return std::make_unique<SyntheticGenerator>(c);
        };
        for (MemScheme s :
             {MemScheme::OramBaseline, MemScheme::OramStatic,
              MemScheme::OramDynamic})
            cells.push_back(bench::generatorCell(exp, s, gen));
    }
    const std::vector<SimResult> results = exp.runGrid(cells);

    stats::Table t({"locality", "stat", "dyn"});
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        const auto &oram = results[i * 3 + 0];
        const auto &stat = results[i * 3 + 1];
        const auto &dyn = results[i * 3 + 2];
        t.row()
            .add(fractions[i], 1)
            .addPct(metrics::speedup(oram, stat))
            .addPct(metrics::speedup(oram, dyn));
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
