#include "cluster/interconnect.hh"

#include "common/sim_error.hh"

namespace ctcp {

namespace {

/** Hop count between two clusters under @p topo (from != to). */
unsigned
hopCount(Topology topo, int n, int from, int to, unsigned group_size)
{
    const unsigned linear =
        static_cast<unsigned>(std::abs(from - to));
    switch (topo) {
      case Topology::LinearChain:
        return linear;
      case Topology::Ring:
        return std::min(linear, static_cast<unsigned>(n) - linear);
      case Topology::Crossbar:
      case Topology::Bus:
        // Every remote cluster is directly reachable: one hop, so bus
        // (and crossbar) waits land in wait_fwd1 by construction.
        return 1;
      case Topology::Hierarchical:
        return static_cast<unsigned>(from) / group_size ==
                       static_cast<unsigned>(to) / group_size
                   ? 1 : 2;
    }
    return linear;
}

} // namespace

Interconnect::Interconnect(const ClusterConfig &cfg)
    : numClusters_(static_cast<int>(cfg.numClusters)),
      hopLatency_(cfg.hopLatency), topo_(cfg.topology),
      busLatency_(cfg.busLatency)
{
    ctcp_assert(numClusters_ > 0, "interconnect needs clusters");
    const unsigned n = static_cast<unsigned>(numClusters_);
    const unsigned group_size =
        cfg.hierGroupSize > 0 ? cfg.hierGroupSize : 1;
    dist_.assign(n * n, 0);
    lat_.assign(n * n, 0);
    for (int from = 0; from < numClusters_; ++from) {
        for (int to = 0; to < numClusters_; ++to) {
            if (from == to)
                continue;   // same cluster: zero hops, zero cycles
            const unsigned hops =
                hopCount(topo_, numClusters_, from, to, group_size);
            unsigned cycles = 0;
            switch (topo_) {
              case Topology::Bus:
                // Uniform broadcast latency; the bandwidth limit is
                // modelled by the simulator's bus PortSchedule.
                cycles = busLatency_;
                break;
              case Topology::Hierarchical:
                cycles = hops * hopLatency_ +
                         (hops > 1 ? cfg.hierGroupLatency : 0);
                break;
              default:
                cycles = hops * hopLatency_;
                break;
            }
            const unsigned i = static_cast<unsigned>(from) * n +
                               static_cast<unsigned>(to);
            dist_[i] = hops;
            lat_[i] = cycles;
            maxDistance_ = std::max(maxDistance_, hops);
        }
    }
    buildCentrality();
}

SimConfig
canonicalTopology(SimConfig cfg)
{
    try {
        cfg.validate();
    } catch (const SimError &) {
        return cfg;
    }
    const Interconnect own(cfg.cluster);
    // Every Topology in declaration order (Bus is the last).
    for (unsigned t = 0; t <= static_cast<unsigned>(Topology::Bus); ++t) {
        ClusterConfig candidate = cfg.cluster;
        candidate.topology = static_cast<Topology>(t);
        candidate.hierGroupSize = ClusterConfig{}.hierGroupSize;
        candidate.hierGroupLatency = ClusterConfig{}.hierGroupLatency;
        if (Interconnect(candidate).forwardsLike(own)) {
            cfg.cluster = candidate;
            break;
        }
    }
    return cfg;
}

} // namespace ctcp
