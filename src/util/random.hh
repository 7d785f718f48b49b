/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * The simulator must be bit-reproducible across runs, so every
 * stochastic component owns an Rng seeded from the experiment
 * configuration instead of sharing global state.
 */

#ifndef PRORAM_UTIL_RANDOM_HH
#define PRORAM_UTIL_RANDOM_HH

#include <cstdint>

namespace proram
{

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain reference
 * algorithm), re-implemented here. Fast, 256-bit state, passes BigCrush;
 * plenty for simulation (not for cryptography - the simulated ORAM's
 * "random" leaves model a hardware TRNG, they are not a security
 * boundary of this codebase).
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * Uniform value in [0, bound), rejection-sampled to avoid modulo
     * bias; a power-of-two bound takes one draw and a mask (the same
     * value the rejection loop returns). @pre bound > 0
     */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t inRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return real() < p;
    }

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace proram

#endif // PRORAM_UTIL_RANDOM_HH
