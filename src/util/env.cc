#include "util/env.hh"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string_view>

#include "util/logging.hh"

namespace proram
{

std::uint64_t
parseKnob(const char *knob, const char *text, std::uint64_t lo,
          std::uint64_t hi)
{
    // strtoull alone accepts leading blanks and a sign ("-1" wraps to
    // 2^64-1), so the first character must already be a digit.
    const bool digit_first = text[0] >= '0' && text[0] <= '9';
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        digit_first ? std::strtoull(text, &end, 10) : 0;
    fatal_if(!digit_first || *end != '\0' || errno == ERANGE ||
                 v < lo || v > hi,
             knob, ": invalid value '", text, "' (want an integer in ",
             lo, "..", hi, ")");
    return v;
}

std::uint64_t
envKnob(const char *knob, std::uint64_t fallback, std::uint64_t lo,
        std::uint64_t hi)
{
    const char *env = std::getenv(knob);
    return env == nullptr ? fallback : parseKnob(knob, env, lo, hi);
}

double
parseFractionKnob(const char *knob, const char *text)
{
    // Only digits and one point: atof/strtod would also take blanks,
    // signs, exponents, hex, "inf" and "nan", and atof maps garbage
    // (say a decimal comma) to a number without complaint.
    const std::string_view s(text);
    const bool plain = s.find_first_not_of("0123456789.") ==
                           std::string_view::npos &&
                       s.find_first_of("0123456789") !=
                           std::string_view::npos &&
                       s.find('.') == s.rfind('.');
    double v = 0.0;
    const bool parsed =
        plain && std::from_chars(s.data(), s.data() + s.size(), v,
                                 std::chars_format::fixed)
                         .ptr == s.data() + s.size();
    fatal_if(!parsed || !(v > 0.0 && v <= 1.0), knob,
             ": invalid value '", text,
             "' (want a decimal fraction in (0, 1])");
    return v;
}

double
envFractionKnob(const char *knob, double fallback)
{
    const char *env = std::getenv(knob);
    return env == nullptr ? fallback : parseFractionKnob(knob, env);
}

} // namespace proram
