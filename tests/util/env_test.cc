/** @file Unit tests for the checked PRORAM_* knob parser. */

#include "util/env.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace proram
{
namespace
{

TEST(EnvKnob, AcceptsDecimalsInsideTheBounds)
{
    EXPECT_EQ(parseKnob("PRORAM_X", "1", 1, 8), 1u);
    EXPECT_EQ(parseKnob("PRORAM_X", "8", 1, 8), 8u);
    EXPECT_EQ(parseKnob("PRORAM_X", "007", 1, 8), 7u);
    EXPECT_EQ(parseKnob("PRORAM_X", "18446744073709551615", 0,
                        ~std::uint64_t{0}),
              ~std::uint64_t{0});
    // The trace-scale form: a plain decimal fraction in (0, 1].
    EXPECT_DOUBLE_EQ(parseFractionKnob("PRORAM_X", "0.05"), 0.05);
    EXPECT_DOUBLE_EQ(parseFractionKnob("PRORAM_X", "1"), 1.0);
    EXPECT_DOUBLE_EQ(parseFractionKnob("PRORAM_X", "1.0"), 1.0);
    EXPECT_DOUBLE_EQ(parseFractionKnob("PRORAM_X", ".5"), 0.5);
}

TEST(EnvKnob, RejectsGarbageSignsAndRange)
{
    for (const char *bad :
         {"", "abc", "3x", "x3", " 3", "3 ", "+3", "-1", "0", "9",
          "1e3", "0x4", "18446744073709551616"}) {
        EXPECT_THROW(parseKnob("PRORAM_X", bad, 1, 8), SimFatal)
            << "'" << bad << "'";
    }
    // "0,05" is the decimal-comma typo atof read as 0 (and so as full
    // scale).
    for (const char *bad :
         {"", "0,05", "0", "0.0", "-0.5", "+0.5", "1.5", "2", " 0.5",
          "0.5 ", "5e-2", "0x0.1", "inf", "nan", ".", "0.5.1", "abc"}) {
        EXPECT_THROW(parseFractionKnob("PRORAM_X", bad), SimFatal)
            << "'" << bad << "'";
    }
}

TEST(EnvKnob, FatalNamesTheKnobValueAndRange)
{
    try {
        parseKnob("PRORAM_BENCH_THREADS", "100000", 1, 256);
        FAIL() << "expected SimFatal";
    } catch (const SimFatal &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("PRORAM_BENCH_THREADS"), std::string::npos);
        EXPECT_NE(msg.find("'100000'"), std::string::npos);
        EXPECT_NE(msg.find("1..256"), std::string::npos);
    }
    try {
        parseFractionKnob("PRORAM_BENCH_SCALE", "0,05");
        FAIL() << "expected SimFatal";
    } catch (const SimFatal &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("PRORAM_BENCH_SCALE"), std::string::npos);
        EXPECT_NE(msg.find("'0,05'"), std::string::npos);
        EXPECT_NE(msg.find("(0, 1]"), std::string::npos);
    }
}

TEST(EnvKnob, UnsetTakesTheFallbackSetIsChecked)
{
    ::unsetenv("PRORAM_ENV_TEST_KNOB");
    EXPECT_EQ(envKnob("PRORAM_ENV_TEST_KNOB", 42, 1, 8), 42u);
    ::setenv("PRORAM_ENV_TEST_KNOB", "5", 1);
    EXPECT_EQ(envKnob("PRORAM_ENV_TEST_KNOB", 42, 1, 8), 5u);
    ::setenv("PRORAM_ENV_TEST_KNOB", "50", 1);
    EXPECT_THROW(envKnob("PRORAM_ENV_TEST_KNOB", 42, 1, 8), SimFatal);
    ::unsetenv("PRORAM_ENV_TEST_KNOB");

    EXPECT_DOUBLE_EQ(envFractionKnob("PRORAM_ENV_TEST_KNOB", 1.0), 1.0);
    ::setenv("PRORAM_ENV_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(envFractionKnob("PRORAM_ENV_TEST_KNOB", 1.0), 0.25);
    ::setenv("PRORAM_ENV_TEST_KNOB", "0,25", 1);
    EXPECT_THROW(envFractionKnob("PRORAM_ENV_TEST_KNOB", 1.0), SimFatal);
    ::unsetenv("PRORAM_ENV_TEST_KNOB");
}

} // namespace
} // namespace proram
