/**
 * @file
 * Small bit-manipulation helpers used by the cache, predictor and trace
 * cache indexing logic.
 */

#ifndef CTCPSIM_COMMON_BITUTIL_HH
#define CTCPSIM_COMMON_BITUTIL_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ctcp {

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)). @pre v > 0. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** ceil(log2(v)). @pre v > 0. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Extract bits [lo, lo+count) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned count)
{
    return (v >> lo) & ((count >= 64) ? ~0ull : ((1ull << count) - 1));
}

/** Fold the upper bits of an address into @p width low bits (XOR hash). */
constexpr std::uint64_t
foldAddress(std::uint64_t v, unsigned width)
{
    std::uint64_t result = 0;
    while (v != 0) {
        result ^= bits(v, 0, width);
        v >>= width;
    }
    return result;
}

/**
 * One bit per set of a lazily initialised array: a structure builds a
 * set's entries on the set's first touch and reads them only after.
 */
class TouchedSets
{
  public:
    explicit TouchedSets(std::size_t sets) : words_((sets + 63) / 64, 0) {}

    bool
    test(std::size_t set) const
    {
        return (words_[set >> 6] >> (set & 63)) & 1;
    }

    /** Mark @p set touched. @return true if it was not touched before. */
    bool
    mark(std::size_t set)
    {
        std::uint64_t &word = words_[set >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (set & 63);
        const bool first = (word & bit) == 0;
        word |= bit;
        return first;
    }

    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    /** Number of touched sets. */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (const std::uint64_t word : words_)
            n += static_cast<std::size_t>(std::popcount(word));
        return n;
    }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace ctcp

#endif // CTCPSIM_COMMON_BITUTIL_HH
