/**
 * @file
 * The eager trace cache TraceCache was before it constructed a set's
 * lines on first touch, kept as a test oracle: every line is built at
 * construction and the key-hash scans visit all of them. The lazy
 * class must return the same lines, results and counters on any
 * stream of lookups, inserts and profile updates. Observability is
 * left out; it does not depend on the storage.
 */

#ifndef CTCPSIM_TESTS_EAGER_TRACE_CACHE_REFERENCE_HH
#define CTCPSIM_TESTS_EAGER_TRACE_CACHE_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "config/sim_config.hh"
#include "stats/stats.hh"
#include "tracecache/trace_cache.hh"
#include "tracecache/trace_line.hh"

namespace ctcp::test {

/** Set-associative, path-associative trace cache, eagerly built. */
class EagerTraceCache
{
  public:
    explicit EagerTraceCache(const TraceCacheConfig &cfg)
        : sets_(cfg.entries / cfg.assoc), assoc_(cfg.assoc)
    {
        lines_.resize(static_cast<std::size_t>(sets_) * assoc_);
    }

    const TraceLine *
    lookup(Addr start_pc, const DirPredictFn &predict,
           Cycle now = neverCycle)
    {
        TraceLine *ways = wayArray(start_pc & (sets_ - 1));
        for (unsigned w = 0; w < assoc_; ++w) {
            TraceLine &line = ways[w];
            if (!line.valid || line.key.startPc != start_pc)
                continue;
            if (now != neverCycle && line.availableAt > now)
                continue;
            bool match = true;
            for (unsigned b = 0; b < line.key.numCondBranches; ++b) {
                const bool embedded = (line.key.condDirs >> b) & 1;
                if (predict(line.condBranchPcs[b], b) != embedded) {
                    match = false;
                    break;
                }
            }
            if (match) {
                line.lastUse = ++useClock_;
                ++hits_;
                return &line;
            }
        }
        ++misses_;
        return nullptr;
    }

    void
    insert(TraceLine line, Cycle available_at = 0)
    {
        line.valid = true;
        line.lastUse = ++useClock_;
        line.availableAt = available_at;
        TraceLine *ways = wayArray(line.key.startPc & (sets_ - 1));
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ways[w].valid && ways[w].key == line.key) {
                line.availableAt = std::min(line.availableAt,
                                            ways[w].availableAt);
                ways[w] = std::move(line);
                ++updates_;
                return;
            }
        }
        TraceLine *victim = &ways[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!ways[w].valid) { victim = &ways[w]; break; }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }
        if (victim->valid)
            ++evicts_;
        *victim = std::move(line);
        ++inserts_;
    }

    bool
    updateProfile(std::uint64_t key_hash, Addr pc,
                  const ChainProfile &profile)
    {
        if (key_hash == 0)
            return false;
        for (TraceLine &line : lines_) {
            if (!line.valid || line.key.hash() != key_hash)
                continue;
            bool any = false;
            for (TraceSlot &slot : line.insts) {
                if (slot.pc == pc && slot.profile.role == ChainRole::None) {
                    slot.profile = profile;
                    any = true;
                }
            }
            if (any)
                ++profileUpdates_;
            return any;
        }
        return false;
    }

    const TraceLine *
    findByHash(std::uint64_t key_hash) const
    {
        for (const TraceLine &line : lines_)
            if (line.valid && line.key.hash() == key_hash)
                return &line;
        return nullptr;
    }

    void
    dumpStats(StatDump &out) const
    {
        out.scalar("tc.hits", hits_);
        out.scalar("tc.misses", misses_);
        out.scalar("tc.hit_rate_pct", percent(hits_, hits_ + misses_));
        out.scalar("tc.insertions", inserts_);
        out.scalar("tc.updates", updates_);
        out.scalar("tc.evictions", evicts_);
        out.scalar("tc.profile_updates", profileUpdates_);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return inserts_; }
    std::uint64_t evictions() const { return evicts_; }

  private:
    TraceLine *
    wayArray(unsigned set)
    {
        return &lines_[static_cast<std::size_t>(set) * assoc_];
    }

    unsigned sets_;
    unsigned assoc_;
    std::vector<TraceLine> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t updates_ = 0;
    std::uint64_t evicts_ = 0;
    std::uint64_t profileUpdates_ = 0;
};

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_EAGER_TRACE_CACHE_REFERENCE_HH
