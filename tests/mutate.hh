/**
 * @file
 * Seeded mutation of byte strings, for the parser fuzz tests: a fixed
 * seed and iteration count make every run test the same inputs.
 */

#ifndef CTCPSIM_TESTS_MUTATE_HH
#define CTCPSIM_TESTS_MUTATE_HH

#include <string>

#include "common/random.hh"

namespace ctcp::test {

/**
 * Apply one to four edits to @p text: flip a bit, truncate, insert a
 * short run of one byte, or delete a few bytes. Inserted bytes favour
 * the punctuation, digits and letters the repository's formats use.
 */
inline std::string
mutate(std::string text, Rng &rng)
{
    static const std::string alphabet =
        "{}[]\":,;=\\-+.0123456789eEtfnulabsz \n\x01\x7f\xc3";
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned e = 0; e < edits; ++e) {
        const std::size_t at = text.empty() ? 0 : rng.below(text.size());
        switch (rng.below(4)) {
          case 0:
            if (!text.empty())
                text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
            break;
          case 1:
            text.resize(at);
            break;
          case 2:
            text.insert(at, 1 + rng.below(3),
                        alphabet[rng.below(alphabet.size())]);
            break;
          default:
            text.erase(at, 1 + rng.below(8));
        }
    }
    return text;
}

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_MUTATE_HH
