/**
 * @file
 * The one strict parser for unsigned numbers read from command lines
 * and protocol headers. strtoul() reads "12abc" as 12 and "banana" as
 * 0; this parser rejects both, so a mistyped value fails loudly
 * instead of silently running something else.
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

} // namespace ctcp

#endif // CTCPSIM_COMMON_PARSE_NUMBER_HH
