/**
 * @file
 * The trace cache proper: a set-associative store of TraceLines with
 * path-associative lookup (start PC plus predicted conditional-branch
 * directions must match a line's embedded directions).
 */

#ifndef CTCPSIM_TRACECACHE_TRACE_CACHE_HH
#define CTCPSIM_TRACECACHE_TRACE_CACHE_HH

#include <functional>

#include "common/bitutil.hh"
#include "config/sim_config.hh"
#include "stats/stats.hh"
#include "tracecache/trace_line.hh"

namespace ctcp {

class ObsSink;

namespace verify {
class FaultInjector;
} // namespace verify

/**
 * Direction oracle used during lookup: returns the predicted direction
 * for the @p index-th embedded conditional branch (at @p branch_pc) of
 * a candidate line. Must not mutate predictor state.
 */
using DirPredictFn = std::function<bool(Addr branch_pc, unsigned index)>;

/** Set-associative, path-associative trace cache. */
class TraceCache
{
  public:
    explicit TraceCache(const TraceCacheConfig &cfg);
    ~TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * Find a valid line starting at @p start_pc whose embedded branch
     * directions all match @p predict. Lines still in flight from the
     * fill unit (available after @p now) do not hit.
     *
     * @return the matching line, or nullptr on a trace-cache miss.
     */
    const TraceLine *lookup(Addr start_pc, const DirPredictFn &predict,
                            Cycle now = neverCycle);

    /**
     * Insert a newly constructed line; a line with the same key is
     * overwritten in place (trace reconstruction), otherwise the LRU
     * way of the set is evicted. The line becomes fetchable at
     * @p available_at (models the fill-unit latency).
     */
    void insert(TraceLine line, Cycle available_at = 0);

    /**
     * Update the FDRT profile of every slot holding @p pc inside the
     * resident line identified by @p key_hash (leader promotion).
     *
     * @return true when the line was resident and a slot matched.
     */
    bool updateProfile(std::uint64_t key_hash, Addr pc,
                       const ChainProfile &profile);

    /** Resident line by key hash (tests and the fill unit). */
    const TraceLine *findByHash(std::uint64_t key_hash) const;

    void dumpStats(StatDump &out) const;

    /** Attach an observability sink (null = off, the default). */
    void setObs(ObsSink *obs) { obs_ = obs; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t insertions() const { return inserts_.value(); }
    std::uint64_t evictions() const { return evicts_.value(); }

    /** Sets whose lines have been constructed (DESIGN decision 15). */
    std::size_t touchedSets() const { return touched_.count(); }

  private:
    /** Corrupts resident lines for the robustness tests (src/verify). */
    friend class verify::FaultInjector;

    unsigned setOf(Addr start_pc) const { return start_pc & (sets_ - 1); }
    TraceLine *wayArray(unsigned set) const
    {
        return &lines_[static_cast<std::size_t>(set) * assoc_];
    }
    /** The lines of @p set, constructed (all invalid) on first use. */
    TraceLine *touchSet(unsigned set);

    /** First valid line whose key hashes to @p key_hash, or null. */
    TraceLine *find(std::uint64_t key_hash) const;

    /** Call @p f on each constructed line, in set-major order. */
    template <class Fn>
    void
    forEachLine(Fn &&f)
    {
        for (unsigned set = 0; set < sets_; ++set) {
            if (!touched_.test(set))
                continue;
            TraceLine *ways = wayArray(set);
            for (unsigned w = 0; w < assoc_; ++w)
                f(ways[w]);
        }
    }

    unsigned sets_;
    unsigned assoc_;
    /** sets_ * assoc_ slots of raw storage; a set's lines are
     *  constructed when its touched_ bit is set, and read only after. */
    TraceLine *lines_;
    TouchedSets touched_;
    std::uint64_t useClock_ = 0;
    ObsSink *obs_ = nullptr;

    Counter hits_;
    Counter misses_;
    Counter inserts_;
    Counter updates_;
    Counter evicts_;
    Counter profileUpdates_;
};

} // namespace ctcp

#endif // CTCPSIM_TRACECACHE_TRACE_CACHE_HH
