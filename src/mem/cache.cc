#include "mem/cache.hh"

#include <algorithm>

namespace ctcp {

SetAssocCache::SetAssocCache(unsigned sets, unsigned assoc,
                             unsigned line_bytes)
    : sets_(sets), assoc_(assoc), lineBytes_(line_bytes), touched_(sets)
{
    ctcp_assert(isPowerOfTwo(sets) && isPowerOfTwo(line_bytes),
                "cache sets and line size must be powers of two");
    ctcp_assert(assoc > 0, "cache associativity must be positive");
    lineShift_ = floorLog2(line_bytes);
    setsLog2_ = floorLog2(sets);
    ways_ = std::make_unique_for_overwrite<Way[]>(
        static_cast<std::size_t>(sets) * assoc);
}

SetAssocCache::Way *
SetAssocCache::setWays(unsigned set)
{
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    if (touched_.mark(set))
        std::fill_n(base, assoc_, Way{0, false, 0});
    return base;
}

bool
SetAssocCache::access(Addr addr, bool allocate)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    Way *base = setWays(set);

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
SetAssocCache::probe(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    if (!touched_.test(set))
        return false;
    const Addr tag = tagOf(line);
    const Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
SetAssocCache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    if (!touched_.test(set))
        return;
    const Addr tag = tagOf(line);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (base[w].valid && base[w].tag == tag)
            base[w].valid = false;
}

void
SetAssocCache::reset()
{
    touched_.clear();
    useClock_ = 0;
    hits_.reset();
    misses_.reset();
}

} // namespace ctcp
