/** @file Unit tests for the deterministic RNG. */

#include "util/random.hh"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/logging.hh"

namespace proram
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

/** The Lemire rejection loop every bound took before the power-of-two
 *  fast path, driven off @p rng 's raw draws. */
std::uint64_t
referenceBelow(Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, PowerOfTwoBelowMatchesTheRejectionLoop)
{
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 1ULL << 14, 1ULL << 31}) {
        Rng fast(bound * 7 + 1), ref(bound * 7 + 1);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(fast.below(bound), referenceBelow(ref, bound))
                << "bound " << bound << " draw " << i;
        // Same values from the same number of draws: the generators
        // are still in lockstep afterwards.
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(fast.next(), ref.next()) << "bound " << bound;
    }
}

TEST(Rng, OtherBoundsStillTakeTheRejectionLoop)
{
    // 3 would read only {0, 2} through a (bound - 1) mask; 2^63 + 1
    // rejects about half of all draws, so a wrong path desyncs the
    // generators within a few calls.
    for (const std::uint64_t bound : {3ULL, (1ULL << 63) + 1}) {
        Rng fast(11), ref(11);
        bool saw_one = false;
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t v = fast.below(bound);
            ASSERT_EQ(v, referenceBelow(ref, bound))
                << "bound " << bound << " draw " << i;
            saw_one = saw_one || v == 1;
        }
        EXPECT_EQ(fast.next(), ref.next()) << "bound " << bound;
        if (bound == 3) {
            EXPECT_TRUE(saw_one);
        }
    }
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.below(0), SimPanic);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowIsApproximatelyUniform)
{
    // Chi-square test at 10 buckets, 20k samples; 99.9% critical
    // value for 9 dof is 27.9.
    Rng rng(42);
    const int buckets = 10, samples = 20000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < samples; ++i)
        ++count[rng.below(buckets)];
    const double expect = static_cast<double>(samples) / buckets;
    double chi2 = 0;
    for (int c : count)
        chi2 += (c - expect) * (c - expect) / expect;
    EXPECT_LT(chi2, 27.9);
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.inRange(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= v == 10;
        saw_hi |= v == 13;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

} // namespace
} // namespace proram
