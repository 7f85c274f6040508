#include "assign/fdrt_assignment.hh"

#include <algorithm>

#include "assign/friendly_assignment.hh"
#include "common/logging.hh"
#include "obs/sink.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {

namespace {

/** The cluster @p table holds for @p pc (invalidCluster when absent). */
ClusterId
lookup(const std::vector<ClusterId> &table, Addr pc)
{
    return pc < table.size() ? table[static_cast<std::size_t>(pc)]
                             : invalidCluster;
}

/** @p table's entry for @p pc, growing the table to hold it. */
ClusterId &
entry(std::vector<ClusterId> &table, Addr pc)
{
    if (pc >= table.size())
        table.resize(static_cast<std::size_t>(pc) + 1, invalidCluster);
    return table[static_cast<std::size_t>(pc)];
}

} // namespace

FdrtAssignment::FdrtAssignment(const Interconnect &interconnect, bool pinning,
                               bool chains)
    : interconnect_(interconnect), pinning_(pinning), chains_(chains)
{
    const int clusters = interconnect.numClusters();
    ctcp_assert(clusters <= static_cast<int>(maxClusters),
                "%d clusters exceed the limit of %u", clusters, maxClusters);
    for (int c = 0; c < clusters; ++c) {
        const auto from = static_cast<ClusterId>(c);
        for (ClusterId n : interconnect.byCentrality())
            if (n != from && interconnect.distance(from, n) == 1)
                neighbours_[static_cast<std::size_t>(c)]
                           [numNeighbours_[static_cast<std::size_t>(c)]++] =
                    n;
    }
}

void
FdrtAssignment::noteCriticalForward(const TimedInst &consumer, TraceCache &tc)
{
    const TimedInstCold &cold = consumer.cold();
    if (!cold.criticalForwarded || !cold.criticalInterTrace)
        return;
    if (cold.criticalProducerCluster == invalidCluster)
        return;

    const Addr producer_pc = cold.criticalProducerPc;

    // Suggested destination cluster for a NEW chain: rotate across
    // the clusters so that concurrent chains spread out instead of
    // piling onto one cluster's four per-trace slots (the paper
    // leaves the suggestion heuristic open). A pinned leader keeps
    // its first suggestion forever; without pinning the suggestion
    // tracks wherever the producer happened to execute this time
    // (the moving-target behaviour of Section 4.4).
    ClusterId suggested;
    if (pinning_) {
        ClusterId &pin = entry(pins_, producer_pc);
        if (pin == invalidCluster) {
            pin = nextSuggestion_;
            ++pinCount_;
            nextSuggestion_ = static_cast<ClusterId>(
                (nextSuggestion_ + 1) % interconnect_.numClusters());
        }
        suggested = pin;
    } else {
        suggested = cold.criticalProducerCluster;
    }

    if (cold.criticalProducerProfile.role == ChainRole::None) {
        // Refresh the resident line so runtime inheritance sees the
        // membership before the producer's trace is next rebuilt.
        ChainProfile prof;
        prof.role = ChainRole::Leader;
        prof.chainCluster = suggested;
        tc.updateProfile(cold.criticalProducerTraceKey, producer_pc,
                         prof);
    }

    if (pendingCount_ >= maxPending) {
        // The bounded hardware buffer overflows.
        std::fill(pendingPromotions_.begin(), pendingPromotions_.end(),
                  invalidCluster);
        pendingCount_ = 0;
    }
    ClusterId &pending = entry(pendingPromotions_, producer_pc);
    if (pending == invalidCluster)
        ++pendingCount_;
    pending = suggested;
    ++promotions_;
}

ChainProfile
FdrtAssignment::updateChainState(const DraftInst &inst)
{
    // Membership is re-derived from the latest dynamic behaviour at
    // every trace construction; only the chain *cluster* is sticky
    // (the pin table). This keeps chain membership tracking the
    // current inter-trace data flow instead of monotonically
    // absorbing every instruction that ever saw a jittery critical
    // input.
    ChainProfile prof;   // role None
    if (!chains_)
        return prof;   // intra-trace-only ablation (Section 5.3)

    // Follower (Table 4): critical input forwarded from a different
    // trace by a chain member; inherits the chain cluster the
    // producer forwarded along with its result.
    const bool producer_is_member =
        inst.criticalForwarded && inst.criticalInterTrace &&
        inst.criticalProducerProfile.isMember();
    if (producer_is_member) {
        prof.role = ChainRole::Follower;
        prof.chainCluster = inst.criticalProducerProfile.chainCluster;
        return prof;
    }

    // Leader: some consumer reported receiving our result across a
    // trace boundary as its last-arriving input (promotion feedback).
    const ClusterId pending = lookup(pendingPromotions_, inst.pc);
    if (pending != invalidCluster) {
        prof.role = ChainRole::Leader;
        prof.chainCluster = pending;
        pendingPromotions_[static_cast<std::size_t>(inst.pc)] =
            invalidCluster;
        --pendingCount_;
        if (pinning_) {
            const ClusterId pin = lookup(pins_, inst.pc);
            if (pin != invalidCluster)
                prof.chainCluster = pin;   // leaders never move
        }
    }
    return prof;
}

bool
FdrtAssignment::tryPlace(const TraceDraft &draft, DraftInst &inst,
                         ClusterId cluster, Occupancy &used)
{
    // invalidCluster converts to a huge index and fails the bound.
    const auto c = static_cast<std::size_t>(cluster);
    if (c >= draft.numClusters || used[c] >= draft.slotsPerCluster)
        return false;
    inst.physSlot = static_cast<int>(c * draft.slotsPerCluster + used[c]);
    ++used[c];
    return true;
}

bool
FdrtAssignment::tryNeighbors(const TraceDraft &draft, DraftInst &inst,
                             ClusterId cluster, Occupancy &used) const
{
    const auto c = static_cast<std::size_t>(cluster);
    if (c >= draft.numClusters)
        return false;
    // Adjacent clusters, emptier first so parallel chains spread
    // instead of caravanning, bending toward the middle on ties.
    ClusterId best = invalidCluster;
    unsigned best_used = ~0u;
    for (std::size_t k = 0; k < numNeighbours_[c]; ++k) {
        const ClusterId n = neighbours_[c][k];
        const unsigned u = used[static_cast<std::size_t>(n)];
        if (u < draft.slotsPerCluster && u < best_used) {
            best_used = u;
            best = n;
        }
    }
    return best != invalidCluster && tryPlace(draft, inst, best, used);
}

void
FdrtAssignment::assign(TraceDraft &draft)
{
    ctcp_assert(static_cast<int>(draft.numClusters) ==
                        interconnect_.numClusters() &&
                    draft.totalSlots() <= maxMachineWidth,
                "draft shape %ux%u does not fit the %d-cluster machine",
                draft.numClusters, draft.slotsPerCluster,
                interconnect_.numClusters());
    Occupancy used{};

    for (DraftInst &d : draft.insts) {
        d.physSlot = -1;
        d.newProfile = updateChainState(d);
    }

    auto placed_cluster = [&](int logical) -> ClusterId {
        const DraftInst &p = draft.insts[static_cast<std::size_t>(logical)];
        return p.physSlot >= 0 ? draft.clusterOfSlot(p.physSlot)
                               : invalidCluster;
    };

    // First pass: Table 5, oldest to youngest in logical order.
    for (DraftInst &d : draft.insts) {
        const bool has_intra = d.intraProducer >= 0;
        const bool is_chain = d.newProfile.isMember();

        if (has_intra && !is_chain) {
            // Option A: producer's cluster, then its neighbors.
            ++options_.optionA;
            d.fdrtOption = 'A';
            const ClusterId prod = placed_cluster(d.intraProducer);
            if (!tryPlace(draft, d, prod, used) &&
                !tryNeighbors(draft, d, prod, used)) {
                --options_.optionA;
                ++options_.skipped;
                d.fdrtOption = 'S';
            }
        } else if (!has_intra && is_chain) {
            // Option B: chain cluster, then its neighbors.
            ++options_.optionB;
            d.fdrtOption = 'B';
            const ClusterId chain = d.newProfile.chainCluster;
            if (!tryPlace(draft, d, chain, used) &&
                !tryNeighbors(draft, d, chain, used)) {
                --options_.optionB;
                ++options_.skipped;
                d.fdrtOption = 'S';
            }
        } else if (has_intra && is_chain) {
            // Option C: chain first, then producer, then neighbors.
            ++options_.optionC;
            d.fdrtOption = 'C';
            const ClusterId chain = d.newProfile.chainCluster;
            const ClusterId prod = placed_cluster(d.intraProducer);
            if (!tryPlace(draft, d, chain, used) &&
                !tryPlace(draft, d, prod, used) &&
                !tryNeighbors(draft, d, chain, used)) {
                --options_.optionC;
                ++options_.skipped;
                d.fdrtOption = 'S';
            }
        } else if (d.hasIntraConsumer) {
            // Option D: pure producer — funnel toward the middle, but
            // spread parallel producers by load so their dependence
            // chains get disjoint clusters to grow in.
            ++options_.optionD;
            d.fdrtOption = 'D';
            ClusterId best = invalidCluster;
            unsigned best_used = ~0u;
            for (ClusterId c : interconnect_.byCentrality()) {
                const unsigned u = used[static_cast<std::size_t>(c)];
                if (u < draft.slotsPerCluster && u < best_used) {
                    best_used = u;
                    best = c;
                }
            }
            if (best == invalidCluster ||
                !tryPlace(draft, d, best, used)) {
                --options_.optionD;
                ++options_.skipped;
                d.fdrtOption = 'S';
            }
        } else {
            // Option E: nothing identifiable — leave to the second pass.
            ++options_.optionE;
            d.fdrtOption = 'E';
        }
    }

    // Second pass: place the remainder with Friendly's slot-centric
    // method over the slots that are still free.
    std::array<int, maxMachineWidth> free_slots;
    std::size_t num_free = 0;
    for (unsigned c = 0; c < draft.numClusters; ++c)
        for (unsigned s = used[c]; s < draft.slotsPerCluster; ++s)
            free_slots[num_free++] =
                static_cast<int>(c * draft.slotsPerCluster + s);
    FriendlyAssignment::fillSlots(draft, free_slots.data(), num_free);

    for ([[maybe_unused]] const DraftInst &d : draft.insts)
        ctcp_assert(d.physSlot >= 0, "FDRT left an instruction unplaced");

    // One assignment-decision event per instruction, recording which
    // Table-5 option drove the placement and the cluster chosen.
    if (obs_ && obs_->enabled(ObsKind::Assign)) {
        for (const DraftInst &d : draft.insts) {
            ObsEvent ev;
            ev.cycle = obsCycle_;
            ev.kind = ObsKind::Assign;
            ev.pc = d.pc;
            ev.opt = d.fdrtOption;
            ev.cluster = draft.clusterOfSlot(d.physSlot);
            obs_->record(ev);
        }
    }
}

} // namespace ctcp
