/**
 * @file
 * Sparse 64-bit-word memory for the functional simulator.
 *
 * Backed by 4 KiB pages allocated on first touch; untouched memory
 * reads as zero, matching how SimpleScalar's functional memory behaves
 * for BSS-like regions.
 */

#ifndef CTCPSIM_FUNC_MEMORY_HH
#define CTCPSIM_FUNC_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace ctcp {

/** Sparse, zero-initialized, word-granular memory image. */
class SparseMemory
{
  public:
    /** Read the 64-bit word containing byte address @p addr. */
    std::int64_t
    read(Addr addr) const
    {
        const Addr word = addr >> 3;
        auto it = pages_.find(word >> wordsPerPageLog2);
        if (it == pages_.end())
            return 0;
        return it->second[word & (wordsPerPage - 1)];
    }

    /** Write the 64-bit word containing byte address @p addr. */
    void
    write(Addr addr, std::int64_t value)
    {
        const Addr word = addr >> 3;
        pages_[word >> wordsPerPageLog2][word & (wordsPerPage - 1)] = value;
    }

    /**
     * Write @p count consecutive words starting at the word containing
     * byte address @p addr, one page lookup per page: the same memory
     * as @p count write() calls at addr, addr + 8, ...
     */
    void
    writeWords(Addr addr, const std::int64_t *words, std::size_t count)
    {
        Addr word = addr >> 3;
        while (count > 0) {
            const std::size_t offset = word & (wordsPerPage - 1);
            const std::size_t n =
                std::min<std::size_t>(count, wordsPerPage - offset);
            std::copy_n(words, n,
                        pages_[word >> wordsPerPageLog2].data() + offset);
            words += n;
            word += n;
            count -= n;
        }
    }

    /** Number of resident 4 KiB pages (for footprint reporting). */
    std::size_t residentPages() const { return pages_.size(); }

  private:
    static constexpr unsigned wordsPerPageLog2 = 9; // 512 words = 4 KiB
    static constexpr Addr wordsPerPage = 1ull << wordsPerPageLog2;

    std::unordered_map<Addr, std::array<std::int64_t, wordsPerPage>> pages_;
};

} // namespace ctcp

#endif // CTCPSIM_FUNC_MEMORY_HH
