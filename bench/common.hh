/**
 * @file
 * Shared plumbing for the figure-reproduction binaries: the checked
 * entry point, scale factor, banner printing, and the standard scheme
 * set.
 */

#ifndef PRORAM_BENCH_COMMON_HH
#define PRORAM_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
#include "stats/table.hh"
#include "util/logging.hh"

namespace proram::bench
{

/**
 * Entry point of every figure, table, ablation and extension binary:
 * run @p body and return its status. A SimFatal - a rejected env knob
 * such as PRORAM_BENCH_SCALE=0,05, or a configuration that cannot be
 * simulated - prints its message on stderr and exits 1 instead of
 * escaping main into std::terminate.
 */
template <typename Body>
int
guardedMain(Body &&body)
{
    try {
        return body();
    } catch (const SimFatal &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

/** Print the figure banner with the paper-expected shape. */
inline void
banner(const std::string &title, const std::string &expectation)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Paper expectation: %s\n", expectation.c_str());
    const double scale = benchScaleFromEnv();
    if (scale != 1.0)
        std::printf("(PRORAM_BENCH_SCALE=%.3g - shortened traces)\n",
                    scale);
    const unsigned threads = Experiment::benchThreadsFromEnv();
    if (threads > 1)
        std::printf("(PRORAM_BENCH_THREADS=%u - parallel grid cells)\n",
                    threads);
    std::printf("==============================================================\n");
}

/** Build the default experiment at the env-controlled scale. */
inline Experiment
defaultExperiment()
{
    return Experiment(defaultSystemConfig(), benchScaleFromEnv());
}

/**
 * Grid-cell factories: bind one simulation run into an
 * Experiment::GridCell for runGrid(). The cell captures @p exp by
 * reference - keep the Experiment alive until runGrid() returns.
 */
inline Experiment::GridCell
benchmarkCell(const Experiment &exp, MemScheme scheme,
              const BenchmarkProfile &profile)
{
    return [&exp, scheme, profile] {
        return exp.runBenchmark(scheme, profile);
    };
}

inline Experiment::GridCell
generatorCell(const Experiment &exp, MemScheme scheme,
              std::function<std::unique_ptr<TraceGenerator>()> make_gen)
{
    return [&exp, scheme, make_gen = std::move(make_gen)] {
        return exp.runGenerator(scheme, make_gen);
    };
}

} // namespace proram::bench

#endif // PRORAM_BENCH_COMMON_HH
