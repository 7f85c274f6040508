/**
 * @file
 * Data-memory subsystem: D-TLB, L1D, unified L2, MSHRs, store buffer
 * with store-to-load forwarding, load queue and cache-port arbitration.
 *
 * This is a latency model: the timing core asks "a load to address A
 * issues now; when is its data ready?". Data values come from the
 * functional simulator. The component structure and parameters follow
 * Table 7 of the paper (32 KB 4-way L1D at 2 cycles, 1 MB 4-way L2 at
 * +8, 128-entry D-TLB at 1/30 cycles, 32-entry store buffer with load
 * forwarding, 32-entry load queue, 16 MSHRs, 4 ports, +65 cycles to
 * main memory).
 */

#ifndef CTCPSIM_MEM_DMEM_HH
#define CTCPSIM_MEM_DMEM_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "config/sim_config.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "stats/stats.hh"

namespace ctcp {

class ObsSink;

/**
 * Arbitrates a fixed number of access ports per cycle: the data cache's
 * ports and the shared result bus's broadcast slots. A booking is kept
 * until the simulated cycle passes it, so requests may ask for cycles
 * out of order: a load that misses the D-TLB asks for a later cycle
 * than the loads that follow it. The ports booked in each cycle are
 * counted in a ring indexed by cycle, whose power-of-two size doubles
 * when a booking lands past its window. A cursor marks the first cycle
 * that is not yet full, so requests in non-decreasing cycle order (the
 * bus's) each book in O(1).
 */
class PortSchedule
{
  public:
    explicit PortSchedule(unsigned ports_per_cycle);

    /**
     * Book a port in the first cycle >= @p at that has one free, and
     * return that cycle. Bookings before @p cycle are forgotten.
     * @param cycle the current simulated cycle
     * @pre @p cycle is not older than the previous request's, and
     *      @p at >= @p cycle
     */
    Cycle
    reserve(Cycle cycle, Cycle at)
    {
        ctcp_assert(cycle >= now_ && at >= cycle,
                    "port request at cycle %llu for cycle %llu, after "
                    "one at cycle %llu",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(at),
                    static_cast<unsigned long long>(now_));
        if (cycle > now_)
            forgetBefore(cycle);
        Cycle slot = std::max(at, free_);
        while (inWindow(slot) && usedIn(slot) == ports_)
            ++slot;
        if (!inWindow(slot))
            grow(slot);
        if (++usedIn(slot) == ports_ && slot == free_)
            skipFullCycles();
        return slot;
    }

  private:
    bool inWindow(Cycle c) const { return c - now_ < used_.size(); }
    unsigned &usedIn(Cycle c) { return used_[c & (used_.size() - 1)]; }
    /** Move the cursor past the full cycles it points at. */
    void
    skipFullCycles()
    {
        while (inWindow(free_) && usedIn(free_) == ports_)
            ++free_;
    }
    /** Clear the cycles before @p cycle and start the window there. */
    void forgetBefore(Cycle cycle);
    /** Double the ring until its window holds @p c. */
    void grow(Cycle c);

    unsigned ports_;
    /** Ports booked in cycle c, at index c mod size. */
    std::vector<unsigned> used_;
    Cycle now_ = 0;    ///< the ring holds cycles [now_, now_ + size)
    Cycle free_ = 0;   ///< first cycle >= now_ that is not yet full
};

/** The complete data-side memory hierarchy. */
class DataMemorySystem
{
  public:
    explicit DataMemorySystem(const MemConfig &cfg);

    /** Outcome of a timed load access. */
    struct LoadResult
    {
        Cycle ready = 0;        ///< cycle the data is available
        bool forwarded = false; ///< satisfied by the store buffer
        bool l1Hit = false;
        bool l2Hit = false;
        bool tlbHit = false;
    };

    /**
     * Issue a load whose effective address is resolved at @p now, from
     * an instruction that executes in simulated cycle @p cycle.
     * @pre !loadQueueFull()
     */
    LoadResult load(Addr addr, Cycle now, Cycle cycle);

    /**
     * Insert a committed store into the store buffer.
     * @return false when the buffer is full (caller must stall retire).
     */
    bool store(Addr addr, Cycle now);

    /** True when no load-queue entry is free (after expiry at @p now). */
    bool loadQueueFull(Cycle now);

    /** True when no store-buffer entry is free (after draining). */
    bool storeBufferFull(Cycle now);

    /** Per-level statistics. */
    void dumpStats(StatDump &out) const;

    /** Attach an observability sink (null = off, the default). */
    void setObs(ObsSink *obs) { obs_ = obs; }

    std::uint64_t loads() const { return loads_.value(); }
    std::uint64_t stores() const { return stores_.value(); }
    std::uint64_t forwards() const { return forwards_.value(); }
    const SetAssocCache &l1d() const { return l1d_; }
    const SetAssocCache &l2() const { return l2_; }

    /** The unified L2 is shared with the instruction side. */
    SetAssocCache &sharedL2() { return l2_; }
    unsigned l2ExtraLatency() const { return cfg_.l2ExtraLatency; }
    unsigned memLatency() const { return cfg_.memLatency; }

  private:
    void drainStores(Cycle now);
    void expireLoads(Cycle now);
    /** Cold path: caller checks obs_ && enabled(ObsKind::Mem) first. */
    [[gnu::noinline]] [[gnu::cold]] void
    recordLoad(Addr addr, Cycle now, const LoadResult &res) const;

    MemConfig cfg_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    SetAssocCache dtlb_;   ///< indexed by page number
    MshrFile mshrs_;
    PortSchedule ports_;
    ObsSink *obs_ = nullptr;

    struct PendingStore
    {
        Addr wordAddr;
        Cycle drained;   ///< cycle it leaves the buffer
    };
    std::deque<PendingStore> storeBuffer_;
    Cycle lastStoreDrain_ = 0;

    std::vector<Cycle> loadQueue_;   ///< completion cycles of in-flight loads

    Counter loads_;
    Counter stores_;
    Counter forwards_;
    Counter tlbMisses_;
    Counter loadQueueStalls_;
    Counter storeBufferStalls_;
};

/** Instruction-side memory: L1I backed by the shared unified L2. */
class InstMemory
{
  public:
    InstMemory(const FrontEndConfig &cfg, DataMemorySystem &dmem);

    /**
     * Extra fetch latency (beyond the pipelined fetch stages) for the
     * line containing byte address @p addr: 0 on an L1I hit.
     */
    unsigned fetchPenalty(Addr addr);

    const SetAssocCache &l1i() const { return l1i_; }

  private:
    SetAssocCache l1i_;
    DataMemorySystem &dmem_;
};

} // namespace ctcp

#endif // CTCPSIM_MEM_DMEM_HH
