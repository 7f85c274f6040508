/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for L1D, unified L2, L1I and (over page numbers) the D-TLB.
 * This is a timing model only — data contents live in the functional
 * simulator's SparseMemory — so the cache tracks tags, not bytes.
 *
 * A set's ways are initialised on the set's first access, not at
 * construction (DESIGN decision 15): a run touches a few hundred of
 * the L2's 8192 sets, so building the array costs one bit per set.
 */

#ifndef CTCPSIM_MEM_CACHE_HH
#define CTCPSIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace ctcp {

/** Tag-only set-associative cache with LRU replacement. */
class SetAssocCache
{
  public:
    /**
     * @param sets        number of sets (power of two)
     * @param assoc       ways per set
     * @param line_bytes  bytes per line (power of two)
     */
    SetAssocCache(unsigned sets, unsigned assoc, unsigned line_bytes);

    /**
     * Look up @p addr; on a miss, optionally allocate (evicting LRU).
     *
     * @return true on hit.
     */
    bool access(Addr addr, bool allocate = true);

    /** Look up without changing any state (for tests and probes). */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Drop all lines. */
    void reset();

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    unsigned sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return lineBytes_; }

    /** Sets whose ways have been initialised since construction or
     *  the last reset(). */
    std::size_t touchedSets() const { return touched_.count(); }

    /** Line-aligned address (identifies a cache line). */
    Addr lineAddr(Addr addr) const { return addr >> lineShift_; }

  private:
    /** Trivial, so the array is allocated without being written. */
    struct Way
    {
        Addr tag;
        bool valid;
        std::uint64_t lastUse;
    };

    unsigned setIndex(Addr line) const { return line & (sets_ - 1); }
    Addr tagOf(Addr line) const { return line >> setsLog2_; }
    /** The ways of @p set, initialised (all invalid) on first use. */
    Way *setWays(unsigned set);

    unsigned sets_;
    unsigned assoc_;
    unsigned lineBytes_;
    unsigned lineShift_;
    unsigned setsLog2_;
    /** sets_ * assoc_, row-major by set; a set's ways hold garbage
     *  until its touched_ bit is set. */
    std::unique_ptr<Way[]> ways_;
    TouchedSets touched_;
    std::uint64_t useClock_ = 0;
    Counter hits_;
    Counter misses_;
};

} // namespace ctcp

#endif // CTCPSIM_MEM_CACHE_HH
