/**
 * @file
 * Checked parsing of the numeric PRORAM_* environment knobs. A set
 * knob is either a plain decimal integer inside the knob's bounds or
 * a fatal error that names the knob: garbage, signs, trailing
 * characters, overflow and out-of-range values never fall back to the
 * default silently.
 */

#ifndef PRORAM_UTIL_ENV_HH
#define PRORAM_UTIL_ENV_HH

#include <cstdint>

namespace proram
{

/**
 * Parse @p text as a decimal integer in [@p lo, @p hi]. Throws
 * SimFatal naming @p knob (and the accepted range) otherwise.
 */
std::uint64_t parseKnob(const char *knob, const char *text,
                        std::uint64_t lo, std::uint64_t hi);

/** $@p knob checked by parseKnob(), or @p fallback when unset. */
std::uint64_t envKnob(const char *knob, std::uint64_t fallback,
                      std::uint64_t lo, std::uint64_t hi);

} // namespace proram

#endif // PRORAM_UTIL_ENV_HH
