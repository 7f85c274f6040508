/**
 * @file
 * Friendly et al.'s retire-time reordering (MICRO-31), as described in
 * Section 2.3 of the paper: a slot-centric pass that, for each issue
 * slot in turn, looks for an instruction with an intra-trace input
 * dependency on the slot's cluster.
 *
 * The optional middle-bias variant (Section 5.3's "minor adjustment")
 * visits slots of the middle clusters first so that the majority of
 * instructions land where worst-case forwarding distances are short.
 */

#ifndef CTCPSIM_ASSIGN_FRIENDLY_ASSIGNMENT_HH
#define CTCPSIM_ASSIGN_FRIENDLY_ASSIGNMENT_HH

#include <array>
#include <cstddef>

#include "cluster/interconnect.hh"
#include "tracecache/assignment.hh"

namespace ctcp {

/** Friendly-style intra-trace slot-centric reordering. */
class FriendlyAssignment : public RetireAssignmentPolicy
{
  public:
    /**
     * @param interconnect  cluster topology (for the middle-bias order)
     * @param middle_bias   visit middle-cluster slots first
     */
    FriendlyAssignment(const Interconnect &interconnect, bool middle_bias)
        : interconnect_(interconnect), middleBias_(middle_bias)
    {}

    void assign(TraceDraft &draft) override;

    const char *name() const override
    {
        return middleBias_ ? "friendly-mid" : "friendly";
    }

    /**
     * Shared slot-filling pass: fill the @p count slots at @p slots, in
     * order, each with the oldest unplaced instruction whose
     * intra-trace producer already sits on the slot's cluster, else the
     * oldest unplaced one. Instructions already placed keep their
     * slots. Runs over 64-bit masks (unplaced, each instruction's
     * consumers, each cluster's producer-placed consumers) and picks
     * with count-trailing-zeros. Used by FriendlyAssignment and as the
     * FDRT second pass.
     */
    static void fillSlots(TraceDraft &draft, const int *slots,
                          std::size_t count);

  private:
    const Interconnect &interconnect_;
    bool middleBias_;
    /** Slot visiting order for the draft shape below, built once. */
    std::array<int, maxMachineWidth> order_{};
    unsigned orderClusters_ = 0;
    unsigned orderSlotsPerCluster_ = 0;
};

} // namespace ctcp

#endif // CTCPSIM_ASSIGN_FRIENDLY_ASSIGNMENT_HH
