/**
 * @file
 * Extension experiment: strided super blocks - the future work the
 * paper names in Sec. 6.2 ("Merging striding blocks is also possible
 * for the dynamic super block scheme"). A column-major sweep over a
 * row-major matrix touches blocks 2^s apart; the classic contiguous
 * pairing finds no locality there, while stride-matched pairing
 * recovers the same gains unit-stride streaming enjoys.
 */

#include <cstdio>

#include "common.hh"
#include "trace/synthetic.hh"

using namespace proram;

namespace
{

std::unique_ptr<TraceGenerator>
columnWalk(std::uint64_t stride)
{
    SyntheticConfig c;
    c.footprintBlocks = 1ULL << 14;
    c.numAccesses = static_cast<std::uint64_t>(
        60000 * proram::benchScaleFromEnv());
    c.localityFraction = 1.0;
    c.strideBlocks = stride;
    c.computeCycles = 4;
    c.seed = 12;
    return std::make_unique<SyntheticGenerator>(c);
}

int
run()
{
    bench::banner(
        "Extension: strided super blocks (paper Sec. 6.2 future work)",
        "contiguous pairing (strideLog 0) finds no locality in a "
        "strided sweep; stride-matched pairing recovers the "
        "unit-stride gain");

    const Experiment exp = bench::defaultExperiment();

    stats::Table t({"walk.stride", "policy.strideLog", "speedup",
                    "merges", "prefetch.missrate"});

    for (std::uint64_t walk_stride : {1ULL, 4ULL, 8ULL}) {
        auto gen = [&] { return columnWalk(walk_stride); };
        const auto oram =
            exp.runGenerator(MemScheme::OramBaseline, gen);
        for (std::uint32_t policy_stride_log : {0u, 2u, 3u}) {
            const auto dyn = exp.runWith(
                MemScheme::OramDynamic,
                [&](SystemConfig &c) {
                    c.dynamic.strideLog = policy_stride_log;
                },
                gen);
            t.row()
                .addInt(walk_stride)
                .addInt(policy_stride_log)
                .addPct(metrics::speedup(oram, dyn))
                .addInt(dyn.merges)
                .add(dyn.prefetchMissRate(), 3);
        }
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("(stride-matched rows - walk 4/policy 2, walk 8/"
                "policy 3 - should approach the walk-1/policy-0 "
                "gain.)\n");
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}
