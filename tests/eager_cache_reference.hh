/**
 * @file
 * The eager tag array SetAssocCache was before it initialised sets on
 * first touch, kept as a test oracle: it value-initialises every way
 * at construction and clears every valid bit on reset(). The lazy
 * class must give the same hit/miss sequence, probe results and
 * counters on any stream of accesses.
 */

#ifndef CTCPSIM_TESTS_EAGER_CACHE_REFERENCE_HH
#define CTCPSIM_TESTS_EAGER_CACHE_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/types.hh"

namespace ctcp::test {

/** Tag-only set-associative cache with LRU replacement, eagerly built. */
class EagerSetAssocCache
{
  public:
    EagerSetAssocCache(unsigned sets, unsigned assoc, unsigned line_bytes)
        : sets_(sets), assoc_(assoc),
          lineShift_(floorLog2(line_bytes)), setsLog2_(floorLog2(sets))
    {
        ways_.resize(static_cast<std::size_t>(sets) * assoc);
    }

    bool
    access(Addr addr, bool allocate = true)
    {
        const Addr line = addr >> lineShift_;
        const unsigned set = line & (sets_ - 1);
        const Addr tag = line >> setsLog2_;
        Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];

        ++useClock_;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = useClock_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        if (allocate) {
            Way *victim = &base[0];
            for (unsigned w = 1; w < assoc_; ++w) {
                if (!base[w].valid) { victim = &base[w]; break; }
                if (base[w].lastUse < victim->lastUse && victim->valid)
                    victim = &base[w];
            }
            victim->valid = true;
            victim->tag = tag;
            victim->lastUse = useClock_;
        }
        return false;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        const unsigned set = line & (sets_ - 1);
        const Addr tag = line >> setsLog2_;
        const Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == tag)
                return true;
        return false;
    }

    void
    invalidate(Addr addr)
    {
        const Addr line = addr >> lineShift_;
        const unsigned set = line & (sets_ - 1);
        const Addr tag = line >> setsLog2_;
        Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == tag)
                base[w].valid = false;
    }

    void
    reset()
    {
        for (Way &w : ways_)
            w.valid = false;
        useClock_ = 0;
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    unsigned sets_;
    unsigned assoc_;
    unsigned lineShift_;
    unsigned setsLog2_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_EAGER_CACHE_REFERENCE_HH
