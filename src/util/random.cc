#include "util/random.hh"

#include "util/logging.hh"

namespace proram
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &w : s_)
        w = splitMix64(sm);
    // All-zero state is the one invalid xoshiro state; SplitMix64 of any
    // seed cannot produce four zero outputs in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    panic_if(bound == 0, "Rng::below(0)");
    // A power of two divides 2^64: the rejection threshold below is 0
    // and r % bound is the low bits, so the mask returns the same
    // value from the same single draw.
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // Lemire-style rejection to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::inRange(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "Rng::inRange with lo > hi");
    return lo + below(hi - lo + 1);
}

} // namespace proram
