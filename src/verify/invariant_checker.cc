#include "verify/invariant_checker.hh"

#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "core/simulator.hh"
#include "isa/instruction.hh"

namespace ctcp::verify {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw SimError(ErrorCategory::Invariant,
                   "invariant violation: " + msg);
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

InvariantChecker::InvariantChecker(unsigned level, unsigned num_clusters,
                                   unsigned cluster_width)
    : level_(level), numClusters_(num_clusters),
      clusterWidth_(cluster_width)
{
    ctcp_assert(level_ > 0, "checker constructed with checks off");
}

void
InvariantChecker::checkCycle(const CtcpSimulator &sim)
{
    ++cyclesChecked_;
    checkRob(sim);
    checkIssueBuffers(sim);
    checkClusters(sim);
    checkStoreWindow(sim);
    checkFetchQueue(sim);
}

void
InvariantChecker::onTraceConstructed(const TraceDraft &,
                                     const TraceLine &line)
{
    checkTraceLine(line);
}

void
InvariantChecker::checkTraceLine(const TraceLine &line) const
{
    const unsigned width = numClusters_ * clusterWidth_;
    if (line.insts.size() > width)
        fail(detail::format(
            "trace line at pc %llu holds %zu instructions, machine "
            "width is %u", ull(line.key.startPc), line.insts.size(),
            width));
    std::vector<char> used(width, 0);
    for (const TraceSlot &slot : line.insts) {
        if (slot.physSlot >= width)
            fail(detail::format(
                "trace line at pc %llu assigns pc %llu to physical "
                "slot %u outside machine width %u",
                ull(line.key.startPc), ull(slot.pc), slot.physSlot,
                width));
        if (used[slot.physSlot])
            fail(detail::format(
                "trace line at pc %llu assigns physical slot %u "
                "(cluster %u) twice — slot permutation scrambled",
                ull(line.key.startPc), slot.physSlot,
                slot.physSlot / clusterWidth_));
        used[slot.physSlot] = 1;
        // The memoized dispatch plan must agree with the slot it was
        // derived from — a stale or scrambled plan byte would silently
        // reroute dispatch.
        if (slot.cluster != noStationPlan &&
            slot.cluster != slot.physSlot / clusterWidth_)
            fail(detail::format(
                "trace line at pc %llu caches dispatch plan cluster %u "
                "for physical slot %u (expected cluster %u)",
                ull(line.key.startPc), unsigned{slot.cluster},
                slot.physSlot, slot.physSlot / clusterWidth_));
        if (slot.station != noStationPlan &&
            slot.station >= numStations)
            fail(detail::format(
                "trace line at pc %llu caches invalid station plan %u",
                ull(line.key.startPc), unsigned{slot.station}));
    }
}

void
InvariantChecker::checkRob(const CtcpSimulator &sim) const
{
    const Cycle now = sim.cycle_;
    std::unordered_set<const TimedInst *> resident;
    resident.reserve(sim.rob_.size());
    InstSeqNum prev_seq = 0;
    for (std::size_t i = 0; i < sim.rob_.size(); ++i) {
        const TimedInst *inst = sim.rob_.at(i);
        resident.insert(inst);
        if (i > 0 && inst->dyn.seq <= prev_seq)
            fail(detail::format(
                "cycle %llu: ROB age order violated at entry %zu "
                "(seq %llu after seq %llu)", ull(now), i,
                ull(inst->dyn.seq), ull(prev_seq)));
        prev_seq = inst->dyn.seq;
        if (inst->dispatched && !inst->issued)
            fail(detail::format(
                "cycle %llu: seq %llu dispatched without issuing",
                ull(now), ull(inst->dyn.seq)));
        if (inst->completed && inst->completeAt > now)
            fail(detail::format(
                "cycle %llu: seq %llu marked complete before its "
                "completion cycle %llu", ull(now), ull(inst->dyn.seq),
                ull(inst->completeAt)));
    }
    for (unsigned r = 0; r < numArchRegs; ++r) {
        const TimedInst *producer = sim.renameTable_[r];
        if (producer == nullptr)
            continue;
        if (resident.find(producer) == resident.end())
            fail(detail::format(
                "cycle %llu: rename table entry for r%u points outside "
                "the ROB", ull(now), r));
        if (!producer->dyn.hasDst() ||
            producer->dyn.dst != static_cast<RegId>(r))
            fail(detail::format(
                "cycle %llu: rename table entry for r%u names seq %llu, "
                "which does not write r%u", ull(now), r,
                ull(producer->dyn.seq), r));
    }
}

void
InvariantChecker::checkIssueBuffers(const CtcpSimulator &sim) const
{
    const Cycle now = sim.cycle_;
    if (sim.routeToIssueQueue_) {
        for (std::size_t c = 0; c < sim.clusterQueues_.size(); ++c)
            if (!sim.clusterQueues_[c].empty())
                fail(detail::format(
                    "cycle %llu: cluster queue %zu holds %zu "
                    "instructions in issue-time mode", ull(now), c,
                    sim.clusterQueues_[c].size()));
    } else if (!sim.issueQueue_.empty()) {
        fail(detail::format(
            "cycle %llu: issue queue holds %zu instructions in a slot "
            "mode", ull(now), sim.issueQueue_.size()));
    }
}

void
InvariantChecker::checkClusters(const CtcpSimulator &sim) const
{
    for (const Cluster &cluster : sim.clusters_) {
        checkSchedList(sim, cluster, cluster.ready_, true);
        checkSchedList(sim, cluster, cluster.waiting_, false);
    }
}

void
InvariantChecker::checkSchedList(const CtcpSimulator &sim,
                                 const Cluster &cluster,
                                 const SchedList &list,
                                 bool ready_list) const
{
    const Cycle now = sim.cycle_;
    const int cid = static_cast<int>(cluster.id_);
    const char *name = ready_list ? "ready" : "waiting";
    const TimedInst *prev = nullptr;
    for (const TimedInst *inst = list.head; inst != nullptr;
         inst = inst->schedNext) {
        if (inst->schedPrev != prev)
            fail(detail::format(
                "cycle %llu cluster %d: %s-list back link of seq %llu "
                "is inconsistent", ull(now), cid, name,
                ull(inst->dyn.seq)));
        if (static_cast<int>(inst->cluster) != cid)
            fail(detail::format(
                "cycle %llu cluster %d: %s list holds seq %llu assigned "
                "to cluster %d", ull(now), cid, name, ull(inst->dyn.seq),
                static_cast<int>(inst->cluster)));
        if (inst->station == nullptr)
            fail(detail::format(
                "cycle %llu cluster %d: %s list holds seq %llu outside "
                "any reservation station", ull(now), cid, name,
                ull(inst->dyn.seq)));
        if (inst->dispatched)
            fail(detail::format(
                "cycle %llu cluster %d: %s list holds already-dispatched "
                "seq %llu", ull(now), cid, name, ull(inst->dyn.seq)));
        if (ready_list) {
            if (prev != nullptr && inst->dyn.seq <= prev->dyn.seq)
                fail(detail::format(
                    "cycle %llu cluster %d: ready-list age order "
                    "violated (seq %llu after seq %llu)", ull(now), cid,
                    ull(inst->dyn.seq), ull(prev->dyn.seq)));
            if (inst->pendingProducers != 0)
                fail(detail::format(
                    "cycle %llu cluster %d: ready list holds seq %llu "
                    "with %u outstanding producers", ull(now), cid,
                    ull(inst->dyn.seq), inst->pendingProducers));
            // The load-bearing check: the dispatch loop trusts this
            // cached integer instead of re-deriving readiness.
            const Cycle recomputed = sim.operandReadiness(*inst).ready;
            if (inst->readyAt != recomputed)
                fail(detail::format(
                    "cycle %llu cluster %d: cached readyAt %llu of seq "
                    "%llu (pc %llu) != recomputed operand readiness "
                    "%llu", ull(now), cid, ull(inst->readyAt),
                    ull(inst->dyn.seq), ull(inst->dyn.pc),
                    ull(recomputed)));
        } else if (inst->pendingProducers == 0) {
            fail(detail::format(
                "cycle %llu cluster %d: waiting list holds seq %llu "
                "with no outstanding producers", ull(now), cid,
                ull(inst->dyn.seq)));
        }
        prev = inst;
    }
    if (list.tail != prev)
        fail(detail::format(
            "cycle %llu cluster %d: %s-list tail pointer does not match "
            "the last reachable node", ull(now), cid, name));
}

void
InvariantChecker::checkStoreWindow(const CtcpSimulator &sim) const
{
    const Cycle now = sim.cycle_;
    const StoreWindow &sw = sim.storeWindow_;

    std::unordered_set<const TimedInst *> in_window;
    in_window.reserve(sw.window_.size());
    InstSeqNum prev_seq = 0;
    for (std::size_t i = 0; i < sw.window_.size(); ++i) {
        const TimedInst *st = sw.window_[i];
        in_window.insert(st);
        if (i > 0 && st->dyn.seq <= prev_seq)
            fail(detail::format(
                "cycle %llu: store window order violated at entry %zu "
                "(seq %llu after seq %llu)", ull(now), i,
                ull(st->dyn.seq), ull(prev_seq)));
        prev_seq = st->dyn.seq;
    }

    if (sw.resolvedPrefix_ > sw.window_.size())
        fail(detail::format(
            "cycle %llu: store-window resolved prefix %zu exceeds "
            "window size %zu", ull(now), sw.resolvedPrefix_,
            sw.window_.size()));
    for (std::size_t i = 0; i < sw.resolvedPrefix_; ++i) {
        const TimedInst *st = sw.window_[i];
        if (!st->dispatched)
            fail(detail::format(
                "cycle %llu: store seq %llu sits below the resolved "
                "prefix but has not dispatched — the cursor ran ahead",
                ull(now), ull(st->dyn.seq)));
    }

    std::size_t bucketed = 0;
    for (const auto &[word, bucket] : sw.byWord_) {
        const TimedInst *prev = nullptr;
        for (const TimedInst *st : bucket) {
            ++bucketed;
            if (in_window.find(st) == in_window.end())
                fail(detail::format(
                    "cycle %llu: forwarding map holds store seq %llu "
                    "that left the window", ull(now), ull(st->dyn.seq)));
            if (StoreWindow::wordOf(st->dyn.effAddr) != word)
                fail(detail::format(
                    "cycle %llu: store seq %llu filed under the wrong "
                    "forwarding word", ull(now), ull(st->dyn.seq)));
            if (prev != nullptr && st->dyn.seq <= prev->dyn.seq)
                fail(detail::format(
                    "cycle %llu: forwarding bucket order violated "
                    "(seq %llu after seq %llu)", ull(now),
                    ull(st->dyn.seq), ull(prev->dyn.seq)));
            prev = st;
        }
    }
    if (bucketed != sw.window_.size())
        fail(detail::format(
            "cycle %llu: forwarding map holds %zu stores, window holds "
            "%zu", ull(now), bucketed, sw.window_.size()));
}

void
InvariantChecker::checkFetchQueue(const CtcpSimulator &sim) const
{
    const Cycle now = sim.cycle_;
    const unsigned width = numClusters_ * clusterWidth_;
    std::vector<char> used(width, 0);
    for (const FetchGroup &group : sim.fetchQueue_) {
        used.assign(width, 0);
        for (const auto &inst : group.insts) {
            if (!inst)
                continue; // already renamed out of the group
            if (inst->slotIndex < 0 ||
                inst->slotIndex >= static_cast<int>(width))
                fail(detail::format(
                    "cycle %llu: fetched seq %llu sits in slot %d "
                    "outside machine width %u", ull(now),
                    ull(inst->dyn.seq), inst->slotIndex, width));
            if (used[inst->slotIndex])
                fail(detail::format(
                    "cycle %llu: fetched group assigns slot %d "
                    "(cluster %d) twice — seq %llu collides", ull(now),
                    inst->slotIndex,
                    inst->slotIndex / static_cast<int>(clusterWidth_),
                    ull(inst->dyn.seq)));
            used[inst->slotIndex] = 1;
        }
    }
}

} // namespace ctcp::verify
