/**
 * @file
 * One execution cluster: five 8-entry reservation stations feeding
 * eight special-purpose functional units (Figure 3 of the paper).
 *
 * Station layout:
 *   Mem      — integer and FP memory operations
 *   Branch   — all control transfers
 *   Complex  — integer mul/div and FP mul/div/sqrt
 *   Simple0  — simple integer ALU and basic FP (first copy)
 *   Simple1  — simple integer ALU and basic FP (second copy)
 *
 * Functional units: 2x simple integer, 1x integer memory, 1x branch,
 * 1x complex integer, 1x basic FP, 1x complex FP, 1x FP memory.
 * Reservation stations accept at most rsWritePorts new instructions
 * per cycle and select ready instructions out of order (oldest first).
 *
 * Scheduling is event-driven: resident instructions live on one of two
 * intrusive lists. Instructions with an outstanding producer sit on a
 * waiting list the dispatch loop never touches; the producer's
 * completion push wakes them onto the age-ordered schedulable list,
 * where selection is a single integer compare against the cached
 * TimedInst::readyAt. Stations track occupancy by count only — an
 * instruction records its station, so removal at dispatch is O(1).
 */

#ifndef CTCPSIM_CLUSTER_CLUSTER_HH
#define CTCPSIM_CLUSTER_CLUSTER_HH

#include <array>
#include <vector>

#include "cluster/station.hh"
#include "cluster/timed_inst.hh"
#include "common/logging.hh"
#include "config/sim_config.hh"
#include "isa/opcodes.hh"
#include "obs/accounting.hh"
#include "stats/stats.hh"

namespace ctcp {

class ObsSink;

namespace verify {
class FaultInjector;
class InvariantChecker;
} // namespace verify

/**
 * Station class for @p inst: the plan byte stamped at fetch when a
 * dispatch plan exists, the FU routing table otherwise (I-cache
 * fetches with plans disabled, or test-constructed instructions).
 */
inline StationKind
instStation(const TimedInst &inst)
{
    if (inst.stationKind != noStationPlan)
        return static_cast<StationKind>(inst.stationKind);
    return stationFor(inst.dyn.fu());
}

/**
 * One out-of-order-selectable reservation station. Tracks occupancy
 * and per-cycle write ports by count; residency itself lives on the
 * owning cluster's scheduler lists.
 */
class ReservationStation
{
  public:
    ReservationStation(unsigned entries, unsigned write_ports)
        : capacity_(entries), writePorts_(write_ports)
    {}

    /** Free entries right now. */
    unsigned freeEntries() const { return capacity_ - size_; }

    bool full() const { return size_ >= capacity_; }
    std::size_t occupancy() const { return size_; }

    /**
     * Try to insert @p inst during cycle @p now, respecting capacity
     * and per-cycle write-port limits. Records the station on the
     * instruction so removal is O(1). Inline: runs once per issued
     * instruction from the rename loop.
     */
    bool
    tryInsert(TimedInst *inst, Cycle now)
    {
        if (full())
            return false;
        if (portCycle_ != now) {
            portCycle_ = now;
            portsUsed_ = 0;
        }
        if (portsUsed_ >= writePorts_)
            return false;
        ++portsUsed_;
        ++size_;
        inst->station = this;
        return true;
    }

    /**
     * Would tryInsert succeed at @p now (capacity and ports)? Inline:
     * issue-time steering probes every cluster through this on each
     * pick, and the accounted rs-full attribution re-probes on stalls.
     */
    bool
    canInsert(Cycle now) const
    {
        if (full())
            return false;
        return portCycle_ != now || portsUsed_ < writePorts_;
    }

    /** Remove a dispatched instruction. */
    void
    remove(TimedInst *inst)
    {
        ctcp_assert(inst->station == this && size_ > 0,
                    "removing instruction not in station");
        --size_;
        inst->station = nullptr;
    }

  private:
    unsigned capacity_;
    unsigned writePorts_;
    unsigned size_ = 0;
    Cycle portCycle_ = neverCycle;
    unsigned portsUsed_ = 0;
};

/** Pool of special-purpose functional units with issue-latency tracking. */
class FuPool
{
  public:
    FuPool();

    /**
     * A claimed-but-not-yet-booked functional unit. Produced by
     * tryReserve(); discarding it leaves the pool untouched, commit()
     * books the unit. Lets the dispatch loop locate a unit in one scan
     * and still back out when the instruction turns out not to be
     * dispatchable this cycle.
     */
    class Slot
    {
      public:
        explicit operator bool() const { return busyUntil_ != nullptr; }

        /** Book the claimed unit until @p now + @p issue_latency. */
        void
        commit(Cycle now, unsigned issue_latency)
        {
            *busyUntil_ = now + issue_latency;
        }

      private:
        friend class FuPool;
        Cycle *busyUntil_ = nullptr;
    };

    /**
     * Single-scan reserve: locate a unit of @p kind free at @p now.
     * Inline: the dispatch loop probes this for every schedulable
     * instruction every cycle.
     * @return a falsy Slot when every unit is busy.
     */
    Slot
    tryReserve(FuKind kind, Cycle now)
    {
        Slot slot;
        for (Cycle &busy_until : units_[static_cast<std::size_t>(kind)]) {
            if (busy_until <= now) {
                slot.busyUntil_ = &busy_until;
                break;
            }
        }
        return slot;
    }

  private:
    /** busy-until cycle per unit, grouped by kind. */
    std::array<std::vector<Cycle>, static_cast<std::size_t>(FuKind::NumKinds)>
        units_;
};

/**
 * Intrusive doubly-linked list of resident instructions (linkage lives
 * in TimedInst::schedPrev/schedNext). An instruction is on at most one
 * SchedList at a time.
 */
struct SchedList
{
    TimedInst *head = nullptr;
    TimedInst *tail = nullptr;

    bool empty() const { return head == nullptr; }

    void
    pushBack(TimedInst *inst)
    {
        inst->schedPrev = tail;
        inst->schedNext = nullptr;
        if (tail != nullptr)
            tail->schedNext = inst;
        else
            head = inst;
        tail = inst;
    }

    /**
     * Insert keeping ascending dyn.seq order, walking from the tail —
     * O(1) for the common in-order arrival, short walk otherwise.
     */
    void
    insertByAge(TimedInst *inst)
    {
        TimedInst *after = tail;
        while (after != nullptr && after->dyn.seq > inst->dyn.seq)
            after = after->schedPrev;
        if (after == nullptr) {
            // Oldest resident: new head.
            inst->schedPrev = nullptr;
            inst->schedNext = head;
            if (head != nullptr)
                head->schedPrev = inst;
            else
                tail = inst;
            head = inst;
            return;
        }
        inst->schedPrev = after;
        inst->schedNext = after->schedNext;
        if (after->schedNext != nullptr)
            after->schedNext->schedPrev = inst;
        else
            tail = inst;
        after->schedNext = inst;
    }

    void
    unlink(TimedInst *inst)
    {
        if (inst->schedPrev != nullptr)
            inst->schedPrev->schedNext = inst->schedNext;
        else
            head = inst->schedNext;
        if (inst->schedNext != nullptr)
            inst->schedNext->schedPrev = inst->schedPrev;
        else
            tail = inst->schedPrev;
        inst->schedPrev = nullptr;
        inst->schedNext = nullptr;
    }
};

/** One execution cluster. */
class Cluster
{
  public:
    Cluster(ClusterId id, const ClusterConfig &cfg);

    ClusterId id() const { return id_; }

    /**
     * Issue @p inst into the appropriate reservation station.
     * Simple operations pick the emptier of the two simple stations.
     * The caller must have set inst->readyAt (neverCycle while a
     * producer is outstanding): it selects the scheduler list.
     *
     * @return false when the station is full or out of write ports.
     * Inline: runs once per renamed instruction.
     */
    bool
    issue(TimedInst *inst, Cycle now)
    {
        StationKind kind = instStation(*inst);
        bool inserted;
        if (kind == StationKind::Simple0) {
            // Pick the emptier of the two simple stations; on a tie or
            // failure, try the other as well.
            ReservationStation &s0 = station(StationKind::Simple0);
            ReservationStation &s1 = station(StationKind::Simple1);
            ReservationStation &first =
                s1.freeEntries() > s0.freeEntries() ? s1 : s0;
            ReservationStation &second = &first == &s0 ? s1 : s0;
            inserted =
                first.tryInsert(inst, now) || second.tryInsert(inst, now);
        } else {
            inserted = station(kind).tryInsert(inst, now);
        }
        if (!inserted)
            return false;
        ++occupancy_;
        // Park behind outstanding producers, or straight onto the
        // schedulable list. Issue can happen out of seq order (steering
        // skips), so keep the schedulable list age-ordered.
        if (inst->pendingProducers > 0) {
            waiting_.pushBack(inst);
        } else {
            ready_.insertByAge(inst);
            nextDispatchAttempt_ = 0;
        }
        return true;
    }

    /**
     * True exactly when issue(@p inst, @p now) would succeed
     * (non-mutating). Inline: issue-time steering calls this for every
     * cluster on every pick, and slot-mode issue before it computes
     * readiness.
     */
    bool
    canAccept(const TimedInst &inst, Cycle now) const
    {
        StationKind kind = instStation(inst);
        if (kind == StationKind::Simple0) {
            return station(StationKind::Simple0).canInsert(now) ||
                   station(StationKind::Simple1).canInsert(now);
        }
        return station(kind).canInsert(now);
    }

    /**
     * Producer completion resolved @p inst's last outstanding operand:
     * move it from the waiting list onto the schedulable list. The
     * caller must have refreshed inst->readyAt first.
     */
    void
    wake(TimedInst *inst)
    {
        ctcp_assert(inst->pendingProducers == 0, "waking a non-ready inst");
        waiting_.unlink(inst);
        ready_.insertByAge(inst);
        nextDispatchAttempt_ = 0;
    }

    /**
     * Select and dispatch ready instructions, oldest first, up to the
     * cluster width, honoring FU availability. Appends the dispatched
     * instructions to @p out in selection order.
     *
     * @p hooks supplies `bool ready(const TimedInst &, Cycle)` — the
     * core-side constraints beyond operand readiness (memory ordering,
     * load-queue space) — and `Cycle execute(TimedInst &, Cycle)`,
     * which performs the dispatch and returns the completion cycle.
     * The hooks type is a template parameter so the per-instruction
     * calls compile to direct (inlinable) calls in the hot loop.
     */
    template <typename Hooks>
    void
    dispatch(Cycle now, Hooks &&hooks, std::vector<TimedInst *> &out)
    {
        if (acct_ == nullptr)
            dispatchImpl<false>(now, hooks, out);
        else
            dispatchImpl<true>(now, hooks, out);
    }

    /**
     * Total instructions currently waiting in this cluster's stations.
     * Counter-tracked (issue/dispatch), O(1): issue-time steering reads
     * this for every cluster on every pick.
     */
    std::size_t occupancy() const { return occupancy_; }

    std::uint64_t dispatched() const { return dispatchCount_.value(); }

    /** Attach an observability sink (null = off, the default). */
    void setObs(ObsSink *obs) { obs_ = obs; }

    /** Attach the cycle-accounting layer (null = off, the default). */
    void setAccounting(CycleAccounting *acct) { acct_ = acct; }

  private:
    /**
     * Upper bound on the blocked-reason scratch array (stack-resident:
     * the accounting layer is allocation-free on the hot path).
     * Recording stops at min(width, acctScanCap) because attribution
     * can only ever charge the first `width - dispatched` reasons —
     * scanning a long schedulable list must not keep writing reasons
     * that can never be charged.
     */
    static constexpr unsigned acctScanCap = 64;

    /**
     * The dispatch loop proper. The Accounted variant additionally
     * records why each resident instruction could not fill a slot and
     * settles the cluster's slot attribution for this cycle; the
     * selection behavior is identical in both instantiations.
     */
    template <bool Accounted, typename Hooks>
    void
    dispatchImpl(Cycle now, Hooks &&hooks, std::vector<TimedInst *> &out)
    {
        // Event-driven fast-out: a walk that found nothing attemptable
        // (every schedulable readyAt in the future) computed the cycle
        // the earliest one matures; until then — or until an issue or
        // wakeup adds a new schedulable instruction, which resets the
        // bound — re-walking the list cannot select anything. Only
        // valid without accounting: the accounted walk must attribute
        // this cycle's empty slots either way.
        if constexpr (!Accounted) {
            if (now < nextDispatchAttempt_)
                return;
        }
        [[maybe_unused]] SlotCat blocked[acctScanCap];
        [[maybe_unused]] unsigned nblocked = 0;
        [[maybe_unused]] unsigned acct_cap = 0;
        if constexpr (Accounted)
            acct_cap = width_ < acctScanCap ? width_ : acctScanCap;
        [[maybe_unused]] bool attempted = false;
        [[maybe_unused]] Cycle earliest = neverCycle;
        unsigned dispatched = 0;
        TimedInst *next = nullptr;
        for (TimedInst *inst = ready_.head; inst != nullptr; inst = next) {
            if (dispatched >= width_)
                break;
            next = inst->schedNext;
            if (inst->readyAt > now) {
                if constexpr (Accounted) {
                    if (nblocked < acct_cap)
                        blocked[nblocked++] =
                            CycleAccounting::waitCategory(inst->stallHops);
                } else {
                    if (inst->readyAt < earliest)
                        earliest = inst->readyAt;
                }
                continue;
            }
            if constexpr (!Accounted)
                attempted = true;
            FuPool::Slot unit = fus_.tryReserve(inst->dyn.fu(), now);
            if (!unit) {
                if constexpr (Accounted) {
                    if (nblocked < acct_cap)
                        blocked[nblocked++] = SlotCat::FuBusy;
                }
                continue;
            }
            if (!hooks.ready(*inst, now)) {
                // Memory-ordering / load-queue holds: the value the
                // instruction waits for is local, so charge wait_intra.
                if constexpr (Accounted) {
                    if (nblocked < acct_cap)
                        blocked[nblocked++] = SlotCat::WaitIntra;
                }
                continue;
            }
            unit.commit(now, inst->dyn.info().issueLatency);
            inst->dispatched = true;
            inst->dispatchAt = now;
            inst->completeAt = hooks.execute(*inst, now);
            finishDispatch(inst, now);
            out.push_back(inst);
            ++dispatched;
        }
        if constexpr (Accounted) {
            attributeSlots(dispatched, blocked, nblocked);
        } else {
            // FU conflicts and memory-ordering holds (attempted) must
            // retry next cycle; a walk of pure future readiness can
            // sleep until the earliest instruction matures.
            nextDispatchAttempt_ = attempted ? 0 : earliest;
        }
    }

    /**
     * Settle this cycle's `width` slot attributions for the cluster.
     * Inline so the accounted dispatch walk absorbs it — it runs per
     * cluster per cycle whenever accounting is on.
     */
    void
    attributeSlots(unsigned dispatched, const SlotCat *blocked,
                   unsigned nblocked)
    {
        // Exactly width_ slots leave here attributed every cycle — that
        // is the conservation property the accounting tests pin.
        acct_->addSlots(id_, SlotCat::Useful, dispatched);
        unsigned remaining = width_ - dispatched;
        const unsigned take = remaining < nblocked ? remaining : nblocked;
        for (unsigned i = 0; i < take; ++i)
            acct_->addSlot(id_, blocked[i]);
        remaining -= take;
        // Slots the schedulable walk could not explain: charge the
        // oldest parked instructions (producer still outstanding) by
        // the hop distance of their worst incomplete producer, cached
        // in stallHops at park time so this per-cycle walk never
        // chases producers.
        for (TimedInst *w = waiting_.head; w != nullptr && remaining > 0;
             w = w->schedNext) {
            acct_->addSlot(id_,
                           CycleAccounting::waitCategory(w->stallHops));
            --remaining;
        }
        if (remaining > 0)
            acct_->addEmptySlots(id_, remaining);
    }
    // The invariant checker walks the scheduler lists read-only; the
    // fault injector corrupts resident instructions in tests.
    friend class verify::InvariantChecker;
    friend class verify::FaultInjector;

    /** Record/unlink/count bookkeeping after a successful dispatch. */
    void
    finishDispatch(TimedInst *inst, Cycle now)
    {
        if (obs_ != nullptr)
            maybeRecordExecute(*inst, now);
        ready_.unlink(inst);
        inst->station->remove(inst);
        --occupancy_;
        ++dispatchCount_;
    }

    /** Cold tracing tail of finishDispatch (out of line in cluster.cc). */
    void maybeRecordExecute(const TimedInst &inst, Cycle now) const;

    ReservationStation &station(StationKind k)
    {
        return stations_[static_cast<std::size_t>(k)];
    }
    const ReservationStation &station(StationKind k) const
    {
        return stations_[static_cast<std::size_t>(k)];
    }

    ClusterId id_;
    unsigned width_;
    std::vector<ReservationStation> stations_;
    FuPool fus_;
    /** Operands resolved: schedulable, ascending dyn.seq. */
    SchedList ready_;
    /** Producer outstanding: parked until the completion push wakes it. */
    SchedList waiting_;
    /** Instructions resident across all five stations (O(1) occupancy). */
    std::size_t occupancy_ = 0;
    /**
     * Earliest cycle the next non-accounted dispatch walk can select
     * anything (0 = walk every cycle). Set by an empty-handed walk to
     * the earliest future readyAt it saw; cleared whenever issue() or
     * wake() adds a schedulable instruction.
     */
    Cycle nextDispatchAttempt_ = 0;
    Counter dispatchCount_;
    ObsSink *obs_ = nullptr;
    CycleAccounting *acct_ = nullptr;
};

} // namespace ctcp

#endif // CTCPSIM_CLUSTER_CLUSTER_HH
