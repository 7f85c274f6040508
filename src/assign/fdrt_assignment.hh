/**
 * @file
 * Feedback-directed retire-time (FDRT) cluster assignment — the
 * paper's contribution (Section 4).
 *
 * Two cooperating mechanisms:
 *
 * 1. Cluster chains (Table 4). When a consumer's last-arriving input
 *    is forwarded across a trace boundary from a producer that is not
 *    yet a chain member, the producer is promoted to chain *leader*
 *    with a suggested destination cluster; the promotion is written
 *    into the producer's resident trace-cache line profile fields (and
 *    remembered in a small pending buffer so the next reconstruction
 *    of the producer's trace picks it up even if the line has been
 *    replaced). A consumer whose critical input is forwarded
 *    inter-trace by a leader or follower becomes a *follower*,
 *    inheriting the chain cluster that the producer forwarded along
 *    with its result. With pinning enabled (Section 4.4) a leader's
 *    suggested cluster is fixed on first promotion and never changes.
 *
 * 2. Slot assignment (Table 5). At trace construction the fill unit
 *    walks the instructions in logical order and applies options A-E:
 *    intra-trace consumers near their producers, chain members on
 *    their chain cluster, pure producers funneled to the middle
 *    clusters, everything unplaceable deferred to a Friendly-style
 *    second pass over the remaining slots.
 */

#ifndef CTCPSIM_ASSIGN_FDRT_ASSIGNMENT_HH
#define CTCPSIM_ASSIGN_FDRT_ASSIGNMENT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/interconnect.hh"
#include "stats/stats.hh"
#include "tracecache/assignment.hh"

namespace ctcp {

/** Per-option outcome counters for Figure 7. */
struct FdrtOptionStats
{
    std::uint64_t optionA = 0;   ///< intra-trace producer only
    std::uint64_t optionB = 0;   ///< chain member only
    std::uint64_t optionC = 0;   ///< chain member with intra producer
    std::uint64_t optionD = 0;   ///< producer-only (intra consumer)
    std::uint64_t optionE = 0;   ///< no identifiable relations
    std::uint64_t skipped = 0;   ///< A-D failed to find a nearby slot

    std::uint64_t
    total() const
    {
        return optionA + optionB + optionC + optionD + optionE + skipped;
    }
};

/** The FDRT retire-time assignment policy. */
class FdrtAssignment : public RetireAssignmentPolicy
{
  public:
    /**
     * @param interconnect  cluster topology
     * @param pinning       pin chain members to their first cluster
     * @param chains        enable inter-trace chains (false isolates
     *                      the intra-trace heuristics, Section 5.3)
     */
    FdrtAssignment(const Interconnect &interconnect, bool pinning,
                   bool chains = true);

    void assign(TraceDraft &draft) override;

    /** Leader promotion on an observed critical inter-trace forward. */
    void noteCriticalForward(const TimedInst &consumer,
                             TraceCache &tc) override;

    const char *name() const override { return "fdrt"; }

    const FdrtOptionStats &optionStats() const { return options_; }

    /** Distinct leaders pinned so far (pinning mode only). */
    std::size_t pinCount() const { return pinCount_; }
    std::uint64_t promotions() const { return promotions_.value(); }

  private:
    /** Slots taken so far in each cluster of the draft being placed. */
    using Occupancy = std::array<unsigned, maxClusters>;

    /** Chain-membership update for one instruction (Table 4). */
    ChainProfile updateChainState(const DraftInst &inst);

    /** Try to place on @p cluster; true on success. */
    static bool tryPlace(const TraceDraft &draft, DraftInst &inst,
                         ClusterId cluster, Occupancy &used);

    /** Try the neighbors of @p cluster, emptiest then most central. */
    bool tryNeighbors(const TraceDraft &draft, DraftInst &inst,
                      ClusterId cluster, Occupancy &used) const;

    const Interconnect &interconnect_;
    bool pinning_;
    bool chains_;
    /** Each cluster's one-hop neighbours, most central first. */
    std::array<std::array<ClusterId, maxClusters>, maxClusters> neighbours_{};
    std::array<std::uint8_t, maxClusters> numNeighbours_{};

    // Program PCs are dense small integers (instruction indices), so
    // the PC-keyed tables below are vectors indexed by PC, grown on
    // write; invalidCluster marks an absent PC.

    /** Permanent leader-cluster pins by PC (pinning mode). */
    std::vector<ClusterId> pins_;
    std::size_t pinCount_ = 0;
    /**
     * Pending leader promotions by PC, awaiting the producer's next
     * trace reconstruction (covers replaced lines and I-cache
     * fetches). Bounded; models a small fill-unit-side buffer.
     */
    std::vector<ClusterId> pendingPromotions_;
    std::size_t pendingCount_ = 0;
    static constexpr std::size_t maxPending = 4096;

    FdrtOptionStats options_;
    Counter promotions_;
    /** Round-robin cursor for new chain-cluster suggestions. */
    ClusterId nextSuggestion_ = 0;
};

} // namespace ctcp

#endif // CTCPSIM_ASSIGN_FDRT_ASSIGNMENT_HH
