/**
 * @file
 * The in-flight (timed) instruction: a committed DynInst annotated with
 * everything the CTCP pipeline learns about it — fetch source and trace
 * instance, FDRT profile fields carried from the trace cache, cluster
 * assignment, per-stage timestamps, and operand provenance used for
 * criticality analysis.
 *
 * Producer/consumer linkage uses a push protocol that avoids dangling
 * pointers: a consumer registers itself with an incomplete producer at
 * rename; when the producer completes it pushes (completion cycle,
 * cluster) into each waiter. Consumers never dereference the producer
 * pointer afterwards. Because retirement is in order, a producer always
 * completes before any of its consumers can retire, so waiter pointers
 * are always live when the push happens.
 *
 * The record is split hot/cold: fields the scheduler and dispatch loop
 * touch every cycle live in TimedInst itself (packed toward the front
 * so the wakeup/dispatch walk stays within the first cache lines),
 * while fields that are only read at retirement or by the accounting
 * layers (branch-target bookkeeping, criticality attribution) live in a
 * TimedInstCold side record reached through coldSlot. Pool-allocated
 * instructions point into a parallel cold array; stack-constructed ones
 * (tests, benches) use OwnedTimedInst, which embeds its own cold slot.
 */

#ifndef CTCPSIM_CLUSTER_TIMED_INST_HH
#define CTCPSIM_CLUSTER_TIMED_INST_HH

#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/small_vec.hh"
#include "common/types.hh"
#include "func/dyninst.hh"

namespace ctcp {

class ReservationStation;
struct TimedInst;

/** FDRT leader/follower states stored in trace-cache profile fields. */
enum class ChainRole : std::uint8_t
{
    None = 0,
    Leader = 1,
    Follower = 2,
};

/** Per-instruction FDRT profile carried in a trace-cache line slot. */
struct ChainProfile
{
    ChainRole role = ChainRole::None;
    /** Suggested chain cluster; invalidCluster when not a chain member. */
    ClusterId chainCluster = invalidCluster;

    bool isMember() const
    {
        return role != ChainRole::None && chainCluster != invalidCluster;
    }
};

/** Provenance and readiness of one source operand. */
struct OperandState
{
    /** The instruction reads this operand at all. */
    bool valid = false;
    /** Value comes from the register file (no in-flight producer). */
    bool fromRF = true;
    /** Cycle the raw value exists at its producer's output (or in RF). */
    Cycle rawReady = neverCycle;
    /**
     * Cycle the value is visible to OTHER clusters. On the
     * point-to-point network this equals rawReady (per-hop latency is
     * added by the consumer); on a bus it includes the broadcast slot
     * and the bus latency.
     */
    Cycle remoteReady = neverCycle;

    // Producer snapshot (meaningful when !fromRF).
    InstSeqNum producerSeq = invalidSeqNum;
    Addr producerPc = 0;
    ClusterId producerCluster = invalidCluster;
    std::uint64_t producerTraceInstance = ~0ull;
    /** Trace-cache line the producer was fetched from (0 = I-cache). */
    std::uint64_t producerTraceKey = 0;
    ChainProfile producerProfile;
    /** Producer's dispatch had already completed at our rename. */
    bool producerComplete = false;
    /**
     * Raw producer pointer, valid until the producer retires. Because
     * retirement is in order and a producer always completes (and
     * pushes its completion) before retiring, this pointer must only
     * be dereferenced while producerComplete is false — after the
     * push it is never needed again.
     */
    struct TimedInst *producerPtr = nullptr;
};

/**
 * Cold side record of a TimedInst: fields written once and read only at
 * retirement (fill unit, profiler) or by tracing/accounting consumers,
 * never by the per-cycle scheduler walk. Kept out of TimedInst so the
 * hot record stays dense in the cache during wakeup and dispatch.
 */
struct TimedInstCold
{
    // ---- Branch prediction bookkeeping --------------------------------
    bool predictedTargetValid = false;
    Addr predictedTarget = 0;

    /** Logical (program-order) index within the fetched group. */
    int logicalIndex = 0;

    // ---- Criticality analysis (filled at dispatch) --------------------
    /** 0 = register file, 1 = src1 producer, 2 = src2 producer. */
    int criticalSrc = 0;
    /** Critical input was satisfied by data forwarding. */
    bool criticalForwarded = false;
    /** Critical forwarded input crossed trace instances. */
    bool criticalInterTrace = false;
    /** Forwarding distance (cluster hops) of the critical input. */
    unsigned criticalDistance = 0;
    ChainProfile criticalProducerProfile;
    Addr criticalProducerPc = 0;
    ClusterId criticalProducerCluster = invalidCluster;
    /** TC line the critical producer was fetched from (0 = I-cache). */
    std::uint64_t criticalProducerTraceKey = 0;
};

/**
 * Every field of the hot record except the two that survive pool reuse
 * (the waiters' spill buffer and the cold pointer). Trivially copyable,
 * so TimedInstPool::acquire() resets all of it with one assignment.
 */
struct TimedInstState
{
    // ---- Event-driven scheduler state (hottest; keep first) ------------
    /**
     * Cached cycle at which every source operand is available at this
     * instruction's cluster (forwarding latency included), filled by
     * the core at issue and on the last producer's completion push.
     * neverCycle while a producer is outstanding. The dispatch loop
     * compares this integer instead of re-deriving readiness.
     */
    Cycle readyAt = 0;
    /** Intrusive linkage for the cluster's scheduler lists. */
    TimedInst *schedPrev = nullptr;
    TimedInst *schedNext = nullptr;
    /** Reservation station currently holding us (null outside one). */
    ReservationStation *station = nullptr;
    /**
     * Outstanding waiter registrations on still-incomplete producers
     * (one per source operand renamed against an in-flight producer).
     * Decremented by the producer's completion push; operand readiness
     * is only computable — and constant — once it reaches zero.
     */
    unsigned pendingProducers = 0;
    /**
     * Hop distance explaining why this instruction stalls a slot,
     * cached for cycle accounting when the layer is on (0 otherwise).
     * While schedulable it is the critical operand's hop distance;
     * while parked it is a park-time snapshot of the worst incomplete
     * producer's distance. Either way the attribution walk charges
     * wait_intra / wait_fwd<hops> from this byte without re-deriving
     * readiness or chasing producer pointers.
     */
    std::uint8_t stallHops = 0;

    // ---- Cluster assignment -------------------------------------------
    ClusterId cluster = invalidCluster;
    /**
     * Memoized dispatch plan stamped at fetch from the trace line's
     * precomputed slot routing (or the I-cache slot table): the cluster
     * this slot maps to and the reservation-station class of the
     * instruction's FU. 0xff = no plan (fall back to deriving both).
     */
    std::uint8_t plannedCluster = 0xff;
    std::uint8_t stationKind = 0xff;

    bool issued = false;
    bool dispatched = false;
    bool completed = false;

    // ---- Pipeline timestamps ------------------------------------------
    Cycle dispatchAt = neverCycle;
    Cycle completeAt = neverCycle;
    /** Bus mode: cycle this result's broadcast reaches remote clusters. */
    Cycle busReadyAt = neverCycle;
    Cycle fetchAt = 0;
    Cycle renameAt = 0;
    Cycle issueAt = 0;

    DynInst dyn;

    // ---- Fetch annotations --------------------------------------------
    bool fromTraceCache = false;
    /** Resolves as a direction/target misprediction (known at fetch). */
    bool mispredicted = false;
    /** Branch predicted taken (direction prediction, known at fetch). */
    bool predictedTaken = false;
    /** Physical issue-buffer slot (determines cluster in slot steering). */
    int slotIndex = 0;
    /** Unique id per delivered fetch group / trace-line instance. */
    std::uint64_t traceInstance = 0;
    /** Identity of the TC line fetched from (0 when from the I-cache). */
    std::uint64_t traceKey = 0;
    /** FDRT profile fields fetched with the instruction. */
    ChainProfile profile;

    // ---- Operand provenance -------------------------------------------
    OperandState ops[2];
};

static_assert(std::is_trivially_copyable_v<TimedInstState>,
              "TimedInstPool resets TimedInstState with one assignment");

/** One in-flight dynamic instruction (hot record). */
struct TimedInst : TimedInstState
{
    /** Consumers waiting for our completion push. */
    SmallVec<TimedInst *, 4> waiters;

    /**
     * Cold side record (retire/accounting-only fields). Pool-allocated
     * instructions point into the pool's parallel cold array;
     * OwnedTimedInst embeds its own. Never null for a live instruction.
     */
    TimedInstCold *coldSlot = nullptr;

    TimedInstCold &cold() { return *coldSlot; }
    const TimedInstCold &cold() const { return *coldSlot; }

    /**
     * Notify waiters that the result exists at this cluster.
     *
     * @p on_ready is invoked for each waiter whose last outstanding
     * producer this was (pendingProducers reached zero) — the wakeup
     * hook the event-driven scheduler uses to move the consumer onto
     * its cluster's schedulable list.
     */
    template <typename OnReady>
    void
    pushCompletion(OnReady &&on_ready)
    {
        for (TimedInst *w : waiters) {
            for (OperandState &op : w->ops) {
                if (op.valid && !op.fromRF && op.producerSeq == dyn.seq) {
                    op.rawReady = completeAt;
                    op.remoteReady =
                        busReadyAt == neverCycle ? completeAt : busReadyAt;
                    op.producerCluster = cluster;
                    op.producerComplete = true;
                }
            }
            if (w->pendingProducers > 0 && --w->pendingProducers == 0)
                on_ready(w);
        }
        waiters.clear();
    }

    void
    pushCompletion()
    {
        pushCompletion([](TimedInst *) {});
    }
};

/**
 * A TimedInst with its cold record embedded — for stack or container
 * construction outside the pool (tests, benches, tools). Copy and move
 * keep coldSlot pointing at the member.
 */
struct OwnedTimedInst : TimedInst
{
    TimedInstCold coldStorage;

    OwnedTimedInst() { coldSlot = &coldStorage; }

    OwnedTimedInst(const OwnedTimedInst &other)
        : TimedInst(other), coldStorage(other.coldStorage)
    {
        coldSlot = &coldStorage;
    }

    OwnedTimedInst(OwnedTimedInst &&other)
        : TimedInst(std::move(other)), coldStorage(other.coldStorage)
    {
        coldSlot = &coldStorage;
    }

    OwnedTimedInst &
    operator=(const OwnedTimedInst &other)
    {
        TimedInst::operator=(other);
        coldStorage = other.coldStorage;
        coldSlot = &coldStorage;
        return *this;
    }

    OwnedTimedInst &
    operator=(OwnedTimedInst &&other)
    {
        TimedInst::operator=(std::move(other));
        coldStorage = other.coldStorage;
        coldSlot = &coldStorage;
        return *this;
    }
};

} // namespace ctcp

#endif // CTCPSIM_CLUSTER_TIMED_INST_HH
