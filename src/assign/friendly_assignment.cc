#include "assign/friendly_assignment.hh"

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace ctcp {

void
FriendlyAssignment::fillSlots(TraceDraft &draft, const int *slots,
                              std::size_t count)
{
    const std::size_t n = draft.insts.size();
    ctcp_assert(n <= maxMachineWidth && draft.numClusters <= maxClusters,
                "draft of %zu instructions on %u clusters", n,
                draft.numClusters);

    // Bit i of consumers[p]: instruction i's critical input comes from
    // instruction p of this trace.
    std::array<std::uint64_t, maxMachineWidth> consumers;
    std::uint64_t unplaced = 0;
    for (std::size_t i = 0; i < n; ++i)
        consumers[i] = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const DraftInst &d = draft.insts[i];
        if (d.physSlot < 0)
            unplaced |= std::uint64_t{1} << i;
        if (d.intraProducer >= 0) {
            ctcp_assert(static_cast<std::size_t>(d.intraProducer) < n,
                        "intra-trace producer %d out of range",
                        d.intraProducer);
            consumers[static_cast<std::size_t>(d.intraProducer)] |=
                std::uint64_t{1} << i;
        }
    }
    // Bit i of near[c]: instruction i's producer has landed on cluster c
    // (already placed by an earlier pass, or by this one).
    std::array<std::uint64_t, maxClusters> near{};
    for (std::size_t i = 0; i < n; ++i) {
        const int slot = draft.insts[i].physSlot;
        if (slot >= 0)
            near[static_cast<std::size_t>(draft.clusterOfSlot(slot))] |=
                consumers[i];
    }

    // Per the paper's description of the Friendly scheme: "for each
    // issue slot, each instruction is checked for an intra-trace input
    // dependency for the respective cluster" — i.e. a slot takes the
    // oldest unplaced instruction whose producer already landed on the
    // slot's cluster, falling back to the oldest unplaced instruction.
    for (std::size_t k = 0; k < count && unplaced != 0; ++k) {
        const int slot = slots[k];
        ctcp_assert(slot >= 0 &&
                    slot < static_cast<int>(draft.totalSlots()),
                    "slot %d outside the draft", slot);
        const auto cluster =
            static_cast<std::size_t>(draft.clusterOfSlot(slot));
        const std::uint64_t match = near[cluster] & unplaced;
        const auto pick = static_cast<std::size_t>(
            std::countr_zero(match != 0 ? match : unplaced));
        draft.insts[pick].physSlot = slot;
        unplaced &= ~(std::uint64_t{1} << pick);
        near[cluster] |= consumers[pick];
    }
}

void
FriendlyAssignment::assign(TraceDraft &draft)
{
    for (DraftInst &d : draft.insts) {
        d.physSlot = -1;
        d.newProfile = d.carriedProfile;
    }

    const unsigned total = draft.totalSlots();
    if (draft.numClusters != orderClusters_ ||
        draft.slotsPerCluster != orderSlotsPerCluster_) {
        ctcp_assert(total <= maxMachineWidth,
                    "%u issue slots exceed the %u-slot limit", total,
                    maxMachineWidth);
        std::size_t k = 0;
        if (middleBias_) {
            ctcp_assert(static_cast<int>(draft.numClusters) ==
                            interconnect_.numClusters(),
                        "draft and interconnect cluster counts differ");
            // Visit slots cluster-by-cluster, middle clusters first.
            for (ClusterId c : interconnect_.byCentrality())
                for (unsigned s = 0; s < draft.slotsPerCluster; ++s)
                    order_[k++] = static_cast<int>(
                        static_cast<unsigned>(c) * draft.slotsPerCluster +
                        s);
        } else {
            for (unsigned s = 0; s < total; ++s)
                order_[k++] = static_cast<int>(s);
        }
        orderClusters_ = draft.numClusters;
        orderSlotsPerCluster_ = draft.slotsPerCluster;
    }

    fillSlots(draft, order_.data(), total);

    for ([[maybe_unused]] const DraftInst &d : draft.insts)
        ctcp_assert(d.physSlot >= 0, "Friendly pass left an unplaced inst");
}

} // namespace ctcp
