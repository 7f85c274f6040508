/**
 * @file
 * The strict parsers for numbers read from command lines, protocol
 * headers and query parameters. strtoul() reads "12abc" as 12 and
 * "banana" as 0, and strtod() reads "1x" as 1; these parsers reject
 * all three, so a mistyped value fails loudly instead of silently
 * running something else.
 */

#ifndef CTCPSIM_COMMON_PARSE_NUMBER_HH
#define CTCPSIM_COMMON_PARSE_NUMBER_HH

#include <cstdint>
#include <limits>
#include <string>

namespace ctcp {

/**
 * Parse @p text as an unsigned decimal integer in [@p min, @p max].
 * Only the digits 0-9 are accepted (no sign, space, prefix or suffix)
 * and they must make up the whole string.
 * @param field  what the value is, named in the error message
 * @throws std::invalid_argument on junk, overflow or a value out of
 *         range
 */
std::uint64_t parseUnsigned(
    const std::string &text, const std::string &field,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse @p text as a non-negative decimal number such as "2", "0.25"
 * or "1.": only digits and at most one point, at least one digit, no
 * sign, exponent, space or suffix, the whole string, and a finite
 * value.
 * @param field  what the value is, named in the error message
 * @throws std::invalid_argument on junk or a value too large for a
 *         double
 */
double parseDecimal(const std::string &text, const std::string &field);

} // namespace ctcp

#endif // CTCPSIM_COMMON_PARSE_NUMBER_HH
