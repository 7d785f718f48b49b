/**
 * @file
 * Checked parsing of the numeric PRORAM_* environment knobs. A set
 * knob is either a plain decimal number inside the knob's bounds (an
 * integer, or a fraction for the trace scale) or a fatal error that
 * names the knob: garbage, signs, exponents, trailing characters,
 * overflow and out-of-range values never fall back to the default
 * silently.
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

/**
 * Parse @p text as a plain decimal fraction in (0, 1]: digits with at
 * most one decimal point ("0.05", "1", ".5"). Throws SimFatal naming
 * @p knob otherwise.
 */
double parseFractionKnob(const char *knob, const char *text);

/** $@p knob checked by parseFractionKnob(), or @p fallback when
 *  unset. */
double envFractionKnob(const char *knob, double fallback);

} // namespace proram

#endif // PRORAM_UTIL_ENV_HH
