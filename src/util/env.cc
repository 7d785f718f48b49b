#include "util/env.hh"

#include <cerrno>
#include <cstdlib>

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

} // namespace proram
