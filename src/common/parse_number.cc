#include "common/parse_number.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace ctcp {

std::uint64_t
parseUnsigned(const std::string &text, const std::string &field,
              std::uint64_t min, std::uint64_t max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("invalid " + field + " '" + text +
                                    "' (expected a decimal integer)");
    std::uint64_t value = 0;
    const std::from_chars_result parsed =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (parsed.ec == std::errc::result_out_of_range || value < min ||
        value > max)
        throw std::invalid_argument(
            field + " " + text + " is out of range (" +
            std::to_string(min) + ".." + std::to_string(max) + ")");
    return value;
}

double
parseDecimal(const std::string &text, const std::string &field)
{
    const auto digit = [](char c) { return c >= '0' && c <= '9'; };
    if (text.find_first_not_of("0123456789.") != std::string::npos ||
        std::count(text.begin(), text.end(), '.') > 1 ||
        std::none_of(text.begin(), text.end(), digit))
        throw std::invalid_argument("invalid " + field + " '" + text +
                                    "' (expected a decimal number)");
    double value = 0.0;
    const std::from_chars_result parsed =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (parsed.ec != std::errc() ||
        parsed.ptr != text.data() + text.size() || !std::isfinite(value))
        throw std::invalid_argument(field + " " + text +
                                    " is out of range");
    return value;
}

} // namespace ctcp
