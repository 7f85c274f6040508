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

#include <deque>
#include <vector>

#include "config/sim_config.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "stats/stats.hh"

namespace ctcp {

class ObsSink;

/**
 * Arbitrates a fixed number of access ports per cycle. Requests may
 * arrive out of cycle order: the data cache's D-TLB misses ask for a
 * later cycle than the loads that follow them.
 */
class PortSchedule
{
  public:
    explicit PortSchedule(unsigned ports_per_cycle)
        : ports_(ports_per_cycle)
    {
        ctcp_assert(ports_per_cycle > 0, "need at least one port");
    }

    /** Earliest cycle >= @p now with a free port; books the port. */
    Cycle reserve(Cycle now);

  private:
    unsigned ports_;
    /** (cycle, ports already booked) for current and future cycles. */
    std::deque<std::pair<Cycle, unsigned>> booked_;
};

/**
 * PortSchedule for requests that arrive in non-decreasing cycle order,
 * such as the shared result bus, whose broadcast slots are booked as
 * completions drain. In order, every booking lands on the first cycle
 * that is not yet full, so that cycle and the ports used in it describe
 * every live booking, and reserve() is O(1). It returns the cycles
 * PortSchedule would for the same requests.
 */
class InOrderPortSchedule
{
  public:
    explicit InOrderPortSchedule(unsigned ports_per_cycle)
        : ports_(ports_per_cycle)
    {
        ctcp_assert(ports_per_cycle > 0, "need at least one port");
    }

    /**
     * Earliest cycle >= @p now with a free port; books the port.
     * @pre @p now is not older than the previous request.
     */
    Cycle
    reserve(Cycle now)
    {
        ctcp_assert(now >= last_,
                    "out-of-order port request: cycle %llu after %llu",
                    static_cast<unsigned long long>(now),
                    static_cast<unsigned long long>(last_));
        last_ = now;
        if (now > next_) {
            next_ = now;
            used_ = 0;
        }
        const Cycle slot = next_;
        if (++used_ == ports_) {
            ++next_;
            used_ = 0;
        }
        return slot;
    }

  private:
    unsigned ports_;
    Cycle last_ = 0;      ///< the previous request
    Cycle next_ = 0;      ///< first cycle that is not yet full
    unsigned used_ = 0;   ///< ports already booked in next_
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
     * Issue a load whose effective address is resolved at @p now.
     * @pre !loadQueueFull()
     */
    LoadResult load(Addr addr, Cycle now);

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
