/**
 * @file
 * Per-cycle invariant checker (opt-in via SimConfig::checkLevel).
 *
 * The event-driven scheduler (PR 3) runs on derived state: cached
 * operand-ready cycles, intrusive ready/waiting lists, a resolved-prefix
 * cursor and a per-word forwarding map in the store window, and
 * physically reordered trace-line slots. A silent corruption in any of
 * them no longer hangs or crashes the simulator — it quietly skews the
 * paper-reproduction numbers. When enabled, this checker revalidates
 * all of that redundant state against first principles after every
 * cycle and throws a structured SimError (category Invariant) naming
 * the cycle, cluster, and instruction on the first divergence.
 *
 * With checkLevel == 0 the simulator carries a null checker pointer and
 * the only cost is one branch per cycle.
 *
 * Checks performed each cycle:
 *  - ROB: ascending sequence numbers (retirement age order), stage-flag
 *    sanity (dispatched implies issued, completed implies completeAt in
 *    the past), rename-table entries point at ROB-resident producers
 *    with the matching destination register.
 *  - Issue buffers: only the active mode's structure holds renamed,
 *    unissued instructions (the issue queue under issue-time steering,
 *    the per-cluster queues otherwise); an adaptive mode switch moves
 *    them across.
 *  - Per-cluster scheduler lists: intrusive linkage consistency,
 *    ascending age order on the ready list, membership (ready list
 *    holds only instructions with no outstanding producers, waiting
 *    list only instructions with some), and the load-bearing one —
 *    every cached TimedInst::readyAt on a ready list must equal the
 *    readiness recomputed from producer completion times.
 *  - StoreWindow: program order, resolved-prefix monotonicity (every
 *    store below the cursor is dispatched), and forwarding-map
 *    consistency (buckets partition the window, each bucket in program
 *    order under the right word key).
 *  - Fetch queue: each group's physical slots are unique and within the
 *    machine width (a scrambled trace-line permutation surfaces here).
 *
 * The checker also registers as the FillUnit's observer and validates
 * every freshly constructed trace line's slot->cluster permutation
 * (retire-time reordering, Table 5 options).
 */

#ifndef CTCPSIM_VERIFY_INVARIANT_CHECKER_HH
#define CTCPSIM_VERIFY_INVARIANT_CHECKER_HH

#include <cstdint>

#include "tracecache/fill_unit.hh"

namespace ctcp {

class Cluster;
class CtcpSimulator;
struct SchedList;

namespace verify {

/** Revalidates scheduler-derived state against first principles. */
class InvariantChecker : public FillUnitObserver
{
  public:
    InvariantChecker(unsigned level, unsigned num_clusters,
                     unsigned cluster_width);

    /**
     * Run every per-cycle check against @p sim's current state.
     * @throws SimError (category Invariant) on the first divergence
     */
    void checkCycle(const CtcpSimulator &sim);

    /** FillUnitObserver: validate a just-constructed line. */
    void onTraceConstructed(const TraceDraft &draft,
                            const TraceLine &line) override;

    /**
     * Slot->cluster permutation validity of one trace line: physical
     * slots unique and within numClusters * clusterWidth.
     * @throws SimError (category Invariant) when violated
     */
    void checkTraceLine(const TraceLine &line) const;

    std::uint64_t cyclesChecked() const { return cyclesChecked_; }

  private:
    void checkRob(const CtcpSimulator &sim) const;
    void checkIssueBuffers(const CtcpSimulator &sim) const;
    void checkClusters(const CtcpSimulator &sim) const;
    void checkSchedList(const CtcpSimulator &sim, const Cluster &cluster,
                        const SchedList &list, bool ready_list) const;
    void checkStoreWindow(const CtcpSimulator &sim) const;
    void checkFetchQueue(const CtcpSimulator &sim) const;

    unsigned level_;
    unsigned numClusters_;
    unsigned clusterWidth_;
    std::uint64_t cyclesChecked_ = 0;
};

} // namespace verify
} // namespace ctcp

#endif // CTCPSIM_VERIFY_INVARIANT_CHECKER_HH
