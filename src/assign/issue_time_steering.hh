/**
 * @file
 * Dynamic issue-time cluster steering (Section 2.3 "Issue Time").
 *
 * Instructions are distributed to the cluster where one or more of
 * their data inputs are known to be generated; at most
 * slotsPerCluster instructions go to each cluster per cycle, which
 * both simplifies the hardware and balances cluster workloads. Both
 * inter-trace and intra-trace dependencies are visible here. The
 * latency cost of the dependency analysis, steering and routing is
 * modelled as extra front-end stages configured separately
 * (AssignConfig::issueTimeLatency).
 */

#ifndef CTCPSIM_ASSIGN_ISSUE_TIME_STEERING_HH
#define CTCPSIM_ASSIGN_ISSUE_TIME_STEERING_HH

#include <vector>

#include "cluster/cluster.hh"
#include "cluster/interconnect.hh"
#include "cluster/timed_inst.hh"

namespace ctcp {

/** Issue-time dependency-based steering with per-cycle cluster caps. */
class IssueTimeSteering
{
  public:
    IssueTimeSteering(const Interconnect &interconnect,
                      unsigned per_cluster_per_cycle)
        : interconnect_(interconnect),
          cap_(per_cluster_per_cycle),
          counts_(static_cast<std::size_t>(interconnect.numClusters()), 0)
    {}

    /** Reset the per-cycle steering caps and exhausted kinds. */
    void
    newCycle(Cycle now)
    {
        if (now != cycle_) {
            cycle_ = now;
            std::fill(counts_.begin(), counts_.end(), 0u);
            exhaustedKinds_ = 0;
        }
    }

    /**
     * Pick an execution cluster for @p inst.
     *
     * Preference order: the cluster of a not-yet-complete producer
     * (that is the input the instruction will wait on), then the
     * cluster of any producer, then the least-occupied cluster. Only
     * clusters under the per-cycle cap that can structurally accept
     * the instruction are eligible.
     *
     * Within one cycle, stations only fill and caps only rise, so
     * eligibility only falls: once no cluster can take a station kind,
     * later picks of that kind fail at once, exactly as a full pick
     * would.
     *
     * @return the chosen cluster, or invalidCluster when every
     *         eligible cluster is capped/full (issue must stall).
     */
    ClusterId
    pick(const TimedInst &inst, const std::vector<Cluster> &clusters)
    {
        const unsigned kind_bit =
            1u << static_cast<unsigned>(instStation(inst));
        if ((exhaustedKinds_ & kind_bit) != 0)
            return invalidCluster;

        auto eligible = [&](ClusterId c) {
            const auto i = static_cast<std::size_t>(c);
            return counts_[i] < cap_ && clusters[i].canAccept(inst, cycle_);
        };

        // Producer clusters: prefer the operand still in flight.
        ClusterId preferred[2] = {invalidCluster, invalidCluster};
        int n = 0;
        for (const OperandState &op : inst.ops) {
            if (!op.valid || op.fromRF)
                continue;
            const ClusterId pc = op.producerComplete
                ? op.producerCluster
                : (op.producerPtr ? op.producerPtr->cluster
                                  : invalidCluster);
            if (pc == invalidCluster)
                continue;
            if (!op.producerComplete && n > 0) {
                // In-flight producer outranks a completed one.
                preferred[1] = preferred[0];
                preferred[0] = pc;
                ++n;
            } else {
                preferred[n++] = pc;
            }
        }
        // Workload balance (the second half of the paper's policy): a
        // producer's cluster is only honoured while its backlog is not
        // grossly out of line with the least-loaded cluster, otherwise
        // dependence-following would funnel whole chains onto one
        // cluster's single memory/branch unit.
        std::size_t min_load = ~std::size_t{0};
        for (int c = 0; c < interconnect_.numClusters(); ++c) {
            min_load = std::min(min_load,
                clusters[static_cast<std::size_t>(c)].occupancy());
        }
        bool wanted = false;
        for (int i = 0; i < n; ++i) {
            if (preferred[i] == invalidCluster)
                continue;
            const std::size_t load =
                clusters[static_cast<std::size_t>(preferred[i])].occupancy();
            if (load > min_load + balanceSlack)
                continue;
            wanted = true;
            if (!eligible(preferred[i]))
                continue;
            ++counts_[static_cast<std::size_t>(preferred[i])];
            return preferred[i];
        }
        if (wanted) {
            // The dependence cluster exists but cannot accept this
            // cycle: waiting a cycle is cheaper than paying the
            // inter-cluster forwarding latency on a dependence chain.
            return invalidCluster;
        }

        // Fall back to the least-loaded eligible cluster (workload
        // balance), breaking ties toward the middle.
        ClusterId best = invalidCluster;
        std::size_t best_load = ~std::size_t{0};
        for (ClusterId c : interconnect_.byCentrality()) {
            if (!eligible(c))
                continue;
            const std::size_t load =
                clusters[static_cast<std::size_t>(c)].occupancy() +
                counts_[static_cast<std::size_t>(c)];
            if (load < best_load) {
                best_load = load;
                best = c;
            }
        }
        if (best != invalidCluster)
            ++counts_[static_cast<std::size_t>(best)];
        else
            exhaustedKinds_ |= kind_bit;
        return best;
    }

  private:
    /** Occupancy headroom before balance overrides dependence. */
    static constexpr std::size_t balanceSlack = 12;

    const Interconnect &interconnect_;
    unsigned cap_;
    std::vector<unsigned> counts_;
    Cycle cycle_ = neverCycle;
    /** Station kinds (bit per StationKind) no cluster can take this cycle. */
    unsigned exhaustedKinds_ = 0;
};

} // namespace ctcp

#endif // CTCPSIM_ASSIGN_ISSUE_TIME_STEERING_HH
