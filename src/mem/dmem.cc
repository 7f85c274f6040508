#include "mem/dmem.hh"

#include <algorithm>

#include "obs/sink.hh"

namespace ctcp {

namespace {

/** Mem-event payload: the level that serviced the load. */
std::int64_t
serviceLevel(const DataMemorySystem::LoadResult &res)
{
    if (res.forwarded)
        return 0;
    if (res.l1Hit)
        return 1;
    if (res.l2Hit)
        return 2;
    return 3;
}

} // namespace

// 64 cycles hold a D-TLB miss's booking (30 cycles out) with room to
// spare; the ring doubles if a booking lands further out.
PortSchedule::PortSchedule(unsigned ports_per_cycle)
    : ports_(ports_per_cycle), used_(64, 0)
{
    ctcp_assert(ports_per_cycle > 0, "need at least one port");
}

void
PortSchedule::forgetBefore(Cycle cycle)
{
    const Cycle gone = std::min<Cycle>(cycle - now_, used_.size());
    for (Cycle c = now_; c < now_ + gone; ++c)
        usedIn(c) = 0;
    now_ = cycle;
    if (free_ < cycle) {
        free_ = cycle;
        skipFullCycles();
    }
}

void
PortSchedule::grow(Cycle c)
{
    std::size_t size = used_.size() * 2;
    while (c - now_ >= size)
        size *= 2;
    std::vector<unsigned> wider(size, 0);
    for (Cycle k = now_; k < now_ + used_.size(); ++k)
        wider[k & (size - 1)] = usedIn(k);
    used_ = std::move(wider);
}

DataMemorySystem::DataMemorySystem(const MemConfig &cfg)
    : cfg_(cfg),
      l1d_(cfg.l1dSets, cfg.l1dAssoc, cfg.l1dLineBytes),
      l2_(cfg.l2Sets, cfg.l2Assoc, cfg.l2LineBytes),
      dtlb_(cfg.dtlbEntries / cfg.dtlbAssoc, cfg.dtlbAssoc, 1),
      mshrs_(cfg.mshrs),
      ports_(cfg.cachePorts)
{}

void
DataMemorySystem::drainStores(Cycle now)
{
    while (!storeBuffer_.empty() && storeBuffer_.front().drained <= now)
        storeBuffer_.pop_front();
}

void
DataMemorySystem::expireLoads(Cycle now)
{
    std::erase_if(loadQueue_, [now](Cycle done) { return done <= now; });
}

bool
DataMemorySystem::loadQueueFull(Cycle now)
{
    expireLoads(now);
    const bool full = loadQueue_.size() >= cfg_.loadQueueEntries;
    if (full)
        ++loadQueueStalls_;
    return full;
}

bool
DataMemorySystem::storeBufferFull(Cycle now)
{
    drainStores(now);
    const bool full = storeBuffer_.size() >= cfg_.storeBufferEntries;
    if (full)
        ++storeBufferStalls_;
    return full;
}

DataMemorySystem::LoadResult
DataMemorySystem::load(Addr addr, Cycle now, Cycle cycle)
{
    ++loads_;
    expireLoads(now);
    ctcp_assert(loadQueue_.size() < cfg_.loadQueueEntries,
                "load issued with a full load queue");

    LoadResult res;

    // D-TLB first; a miss serializes before the cache access.
    const Addr page = addr / cfg_.pageBytes;
    res.tlbHit = dtlb_.access(page);
    Cycle start = now + (res.tlbHit ? cfg_.dtlbHitLatency
                                    : cfg_.dtlbMissLatency);
    if (!res.tlbHit)
        ++tlbMisses_;

    // Store-to-load forwarding from the committed-store buffer.
    drainStores(now);
    const Addr word = addr >> 3;
    for (const PendingStore &st : storeBuffer_) {
        if (st.wordAddr == word) {
            res.forwarded = true;
            ++forwards_;
            res.ready = start + 1;
            loadQueue_.push_back(res.ready);
            if (obs_ && obs_->enabled(ObsKind::Mem))
                recordLoad(addr, now, res);
            return res;
        }
    }

    start = ports_.reserve(cycle, start);

    res.l1Hit = l1d_.access(addr);
    if (res.l1Hit) {
        res.ready = start + cfg_.l1dHitLatency;
        // The tag may be present while its fill is still in flight
        // (allocate-on-miss): such a "hit" completes with the fill.
        mshrs_.expire(start);
        const Cycle pending = mshrs_.outstanding(l1d_.lineAddr(addr));
        if (pending != neverCycle) {
            mshrs_.noteMerge();
            res.ready = std::max(res.ready, pending);
        }
    } else {
        const Addr line = l1d_.lineAddr(addr);
        mshrs_.expire(start);
        const Cycle pending = mshrs_.outstanding(line);
        if (pending != neverCycle) {
            // Secondary miss merges into the outstanding fill.
            mshrs_.noteMerge();
            res.ready = pending;
        } else {
            res.l2Hit = l2_.access(addr);
            Cycle fill = start + cfg_.l1dHitLatency + cfg_.l2ExtraLatency;
            if (!res.l2Hit)
                fill += cfg_.memLatency;
            if (mshrs_.full()) {
                // Wait for the earliest outstanding fill to free an entry.
                const Cycle free_at = mshrs_.earliestReady();
                ctcp_assert(free_at != neverCycle,
                            "full MSHR file with no outstanding fills");
                fill += free_at > start ? free_at - start : 0;
                mshrs_.expire(free_at);
            }
            mshrs_.allocate(line, fill);
            res.ready = fill;
        }
    }
    loadQueue_.push_back(res.ready);
    if (obs_ && obs_->enabled(ObsKind::Mem))
        recordLoad(addr, now, res);
    return res;
}

void
DataMemorySystem::recordLoad(Addr addr, Cycle now,
                             const LoadResult &res) const
{
    ObsEvent ev;
    ev.cycle = now;
    ev.kind = ObsKind::Mem;
    ev.arg0 = static_cast<std::int64_t>(addr);
    ev.arg1 = serviceLevel(res);
    ev.dur = res.ready - now;
    obs_->record(ev);
}

bool
DataMemorySystem::store(Addr addr, Cycle now)
{
    drainStores(now);
    if (storeBuffer_.size() >= cfg_.storeBufferEntries) {
        ++storeBufferStalls_;
        return false;
    }
    ++stores_;
    // Stores drain in order, one per cycle, at L1 occupancy. A store
    // miss allocates (write-allocate) with the usual fill latency but
    // does not block the buffer slot beyond the drain point.
    const Cycle slot = std::max(now, lastStoreDrain_ + 1);
    const Cycle port = ports_.reserve(now, slot);
    const bool l1_hit = l1d_.access(addr);
    Cycle drained = port + cfg_.l1dHitLatency;
    if (!l1_hit) {
        const bool l2_hit = l2_.access(addr);
        drained += cfg_.l2ExtraLatency + (l2_hit ? 0 : cfg_.memLatency);
    }
    lastStoreDrain_ = slot;
    storeBuffer_.push_back({addr >> 3, drained});
    return true;
}

void
DataMemorySystem::dumpStats(StatDump &out) const
{
    out.scalar("dmem.loads", loads_.value());
    out.scalar("dmem.stores", stores_.value());
    out.scalar("dmem.store_forwards", forwards_.value());
    out.scalar("dmem.l1d_hits", l1d_.hits());
    out.scalar("dmem.l1d_misses", l1d_.misses());
    out.scalar("dmem.l2_hits", l2_.hits());
    out.scalar("dmem.l2_misses", l2_.misses());
    out.scalar("dmem.dtlb_misses", tlbMisses_.value());
    out.scalar("dmem.mshr_merges", mshrs_.merges());
    out.scalar("dmem.load_queue_stalls", loadQueueStalls_.value());
    out.scalar("dmem.store_buffer_stalls", storeBufferStalls_.value());
}

InstMemory::InstMemory(const FrontEndConfig &cfg, DataMemorySystem &dmem)
    : l1i_(cfg.icacheSets, cfg.icacheAssoc, cfg.icacheLineBytes),
      dmem_(dmem)
{}

unsigned
InstMemory::fetchPenalty(Addr addr)
{
    if (l1i_.access(addr))
        return 0;
    const bool l2_hit = dmem_.sharedL2().access(addr);
    return dmem_.l2ExtraLatency() + (l2_hit ? 0 : dmem_.memLatency());
}

} // namespace ctcp
