#include "tracecache/trace_cache.hh"

#include <algorithm>
#include <memory>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "obs/sink.hh"

namespace ctcp {

namespace {

// Out of line so the lookup path carries only the obs_ guard branch.
[[gnu::noinline]] [[gnu::cold]] void
recordTcEvent(ObsSink &obs, ObsKind kind, Cycle now, Addr start_pc,
              std::int64_t insts)
{
    ObsEvent ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.pc = start_pc;
    ev.arg0 = insts;
    obs.record(ev);
}

} // namespace

TraceCache::TraceCache(const TraceCacheConfig &cfg)
    : sets_(cfg.entries / cfg.assoc), assoc_(cfg.assoc),
      lines_(std::allocator<TraceLine>().allocate(
          static_cast<std::size_t>(sets_) * assoc_)),
      touched_(sets_)
{
    ctcp_assert(isPowerOfTwo(sets_), "trace cache sets must be 2^n");
}

TraceCache::~TraceCache()
{
    forEachLine([](TraceLine &line) { std::destroy_at(&line); });
    std::allocator<TraceLine>().deallocate(
        lines_, static_cast<std::size_t>(sets_) * assoc_);
}

TraceLine *
TraceCache::touchSet(unsigned set)
{
    TraceLine *ways = wayArray(set);
    if (touched_.mark(set))
        std::uninitialized_value_construct_n(ways, assoc_);
    return ways;
}

const TraceLine *
TraceCache::lookup(Addr start_pc, const DirPredictFn &predict, Cycle now)
{
    const unsigned set = setOf(start_pc);
    TraceLine *ways = wayArray(set);
    // An untouched set holds no line: a miss, without building it.
    const unsigned assoc = touched_.test(set) ? assoc_ : 0;
    for (unsigned w = 0; w < assoc; ++w) {
        TraceLine &line = ways[w];
        if (!line.valid || line.key.startPc != start_pc)
            continue;
        if (now != neverCycle && line.availableAt > now)
            continue;   // still in flight from the fill unit
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
            // Probe lookups (tests, fill unit) pass neverCycle; only
            // real fetch-path lookups are timestamped events.
            if (obs_ && now != neverCycle &&
                obs_->enabled(ObsKind::TcHit)) {
                recordTcEvent(*obs_, ObsKind::TcHit, now, start_pc,
                              static_cast<std::int64_t>(
                                  line.insts.size()));
            }
            return &line;
        }
    }
    ++misses_;
    if (obs_ && now != neverCycle && obs_->enabled(ObsKind::TcMiss))
        recordTcEvent(*obs_, ObsKind::TcMiss, now, start_pc, 0);
    return nullptr;
}

void
TraceCache::insert(TraceLine line, Cycle available_at)
{
    ctcp_assert(!line.insts.empty(), "inserting an empty trace line");
    line.valid = true;
    line.lastUse = ++useClock_;
    line.availableAt = available_at;

    TraceLine *ways = touchSet(setOf(line.key.startPc));
    // Same identity: overwrite in place (trace reconstruction). The
    // resident copy keeps serving fetches while the refreshed one is
    // in flight, so availability never regresses — this is what makes
    // large fill-unit latencies nearly free (Section 4 of the paper):
    // only brand-new lines pay the latency.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (ways[w].valid && ways[w].key == line.key) {
            line.availableAt = std::min(line.availableAt,
                                        ways[w].availableAt);
            ways[w] = std::move(line);
            ++updates_;
            return;
        }
    }
    // Otherwise fill an invalid way or evict true-LRU.
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
TraceCache::updateProfile(std::uint64_t key_hash, Addr pc,
                          const ChainProfile &profile)
{
    if (key_hash == 0)   // instruction was fetched from the I-cache
        return false;
    // The key hash does not localize the set, so scan; the trace cache
    // is small (1K lines) and promotions are rare relative to fetches.
    TraceLine *line = find(key_hash);
    if (line == nullptr)
        return false;
    bool any = false;
    for (TraceSlot &slot : line->insts) {
        if (slot.pc == pc && slot.profile.role == ChainRole::None) {
            slot.profile = profile;
            any = true;
        }
    }
    if (any)
        ++profileUpdates_;
    return any;
}

TraceLine *
TraceCache::find(std::uint64_t key_hash) const
{
    for (unsigned set = 0; set < sets_; ++set) {
        if (!touched_.test(set))
            continue;
        TraceLine *ways = wayArray(set);
        for (unsigned w = 0; w < assoc_; ++w)
            if (ways[w].valid && ways[w].key.hash() == key_hash)
                return &ways[w];
    }
    return nullptr;
}

const TraceLine *
TraceCache::findByHash(std::uint64_t key_hash) const
{
    return find(key_hash);
}

void
TraceCache::dumpStats(StatDump &out) const
{
    out.scalar("tc.hits", hits_.value());
    out.scalar("tc.misses", misses_.value());
    out.scalar("tc.hit_rate_pct",
               percent(hits_.value(), hits_.value() + misses_.value()));
    out.scalar("tc.insertions", inserts_.value());
    out.scalar("tc.updates", updates_.value());
    out.scalar("tc.evictions", evicts_.value());
    out.scalar("tc.profile_updates", profileUpdates_.value());
}

} // namespace ctcp
