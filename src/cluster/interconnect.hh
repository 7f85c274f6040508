/**
 * @file
 * Inter-cluster data-forwarding network model.
 *
 * Every topology — the paper's baseline linear chain, the Figure 8
 * ring ("mesh"), a full crossbar, a two-level hierarchy and the shared
 * broadcast bus — is expressed as a pair of NxN matrices precomputed
 * at construction: `distance` (cluster hops, what the accounting
 * taxonomy and the steering heuristics reason about) and `latency`
 * (cycles, what the scheduler adds to operand readiness). The hot
 * paths are therefore one indexed load regardless of topology, and
 * the forwarding-hop matrix in obs/accounting and the scheduler's
 * TimedInst::stallHops cache consume the same numbers every topology.
 *
 * The bus is the one topology with semantics beyond its matrices:
 * distance is uniformly one hop (so bus waits bin as wait_fwd1) and
 * latency uniformly busLatency, but bandwidth contention is modelled
 * separately by the simulator's InOrderPortSchedule using busReadyAt.
 * Intra-cluster forwarding is free (same cycle as dispatch) in every
 * topology.
 */

#ifndef CTCPSIM_CLUSTER_INTERCONNECT_HH
#define CTCPSIM_CLUSTER_INTERCONNECT_HH

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "config/sim_config.hh"

namespace ctcp {

/** Computes forwarding distances and latencies between clusters. */
class Interconnect
{
  public:
    explicit Interconnect(const ClusterConfig &cfg);

    /** Number of cluster hops between @p from and @p to (0 if equal). */
    unsigned
    distance(ClusterId from, ClusterId to) const
    {
        ctcp_assert(from >= 0 && from < numClusters_ &&
                    to >= 0 && to < numClusters_,
                    "distance between invalid clusters %d and %d",
                    static_cast<int>(from), static_cast<int>(to));
        return dist_[static_cast<unsigned>(from) *
                         static_cast<unsigned>(numClusters_) +
                     static_cast<unsigned>(to)];
    }

    /** Forwarding latency in cycles from @p from to @p to. */
    unsigned
    latency(ClusterId from, ClusterId to) const
    {
        ctcp_assert(from >= 0 && from < numClusters_ &&
                    to >= 0 && to < numClusters_,
                    "latency between invalid clusters %d and %d",
                    static_cast<int>(from), static_cast<int>(to));
        return lat_[static_cast<unsigned>(from) *
                        static_cast<unsigned>(numClusters_) +
                    static_cast<unsigned>(to)];
    }

    /** True when the two clusters are the same or directly connected. */
    bool
    adjacent(ClusterId a, ClusterId b) const
    {
        return distance(a, b) <= 1;
    }

    int numClusters() const { return numClusters_; }
    unsigned hopLatency() const { return hopLatency_; }
    Topology topology() const { return topo_; }
    bool isMesh() const { return topo_ == Topology::Ring; }
    bool isBus() const { return topo_ == Topology::Bus; }
    unsigned busLatency() const { return busLatency_; }

    /**
     * Largest entry of the distance matrix: the topology's reachable-
     * hop support. Slot categories wait_fwd<h> with h beyond this (and
     * beyond the taxonomy's 3-hop clamp) must stay zero — the property
     * the design-space conservation test pins.
     */
    unsigned maxDistance() const { return maxDistance_; }

    /**
     * Clusters sorted by centrality: middle clusters first. Used by the
     * FDRT strategy to funnel producers toward the middle and keep
     * worst-case forwarding distances short. For the symmetric
     * topologies (ring, crossbar, bus) every cluster is equivalent and
     * this is simply a stable deterministic order. Precomputed at
     * construction — issue-time steering walks it on every fallback
     * pick, so it must not allocate or sort per call.
     */
    const std::vector<ClusterId> &byCentrality() const { return central_; }

    /**
     * Does this network forward exactly as @p other does: the same
     * distance, latency and centrality tables, and the same bus (none,
     * or one of equal latency)? The simulator sees a topology only
     * through these, so machines whose networks agree and whose other
     * fields are equal are the same machine.
     */
    bool
    forwardsLike(const Interconnect &other) const
    {
        return dist_ == other.dist_ && lat_ == other.lat_ &&
            central_ == other.central_ && isBus() == other.isBus() &&
            (!isBus() || busLatency_ == other.busLatency_);
    }

  private:
    /** Build the centrality order (constructor helper). */
    void
    buildCentrality()
    {
        for (int c = 0; c < numClusters_; ++c)
            central_.push_back(static_cast<ClusterId>(c));
        const double mid = (numClusters_ - 1) / 2.0;
        std::stable_sort(central_.begin(), central_.end(),
            [mid](ClusterId a, ClusterId b) {
                return std::abs(a - mid) < std::abs(b - mid);
            });
    }

    int numClusters_;
    unsigned hopLatency_;
    Topology topo_;
    unsigned busLatency_;
    unsigned maxDistance_ = 0;
    /** Row-major NxN hop counts. */
    std::vector<unsigned> dist_;
    /** Row-major NxN forwarding latencies in cycles. */
    std::vector<unsigned> lat_;
    /** Middle-first cluster order (see byCentrality()). */
    std::vector<ClusterId> central_;
};

/**
 * @p cfg with its network described canonically: the cluster
 * topology, hierGroupSize and hierGroupLatency replaced by the
 * lowest-numbered Topology, with default hier parameters, whose
 * network forwards like @p cfg's (Interconnect::forwardsLike). At two
 * clusters linear, ring, crossbar and hier all become linear; a
 * hierarchy that is one group becomes crossbar. Unchanged when no
 * such topology exists, or when @p cfg does not validate (its run
 * fails the same either way).
 */
SimConfig canonicalTopology(SimConfig cfg);

} // namespace ctcp

#endif // CTCPSIM_CLUSTER_INTERCONNECT_HH
