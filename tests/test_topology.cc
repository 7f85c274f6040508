/**
 * @file
 * Topology abstraction tests: the distance/latency matrices of every
 * interconnect variant, the legacy mesh/bus flag aliases, and the
 * differential oracles that tie the new topologies to machines the
 * repo already trusts (crossbar == unbounded bus, 2-cluster ring ==
 * 2-cluster linear chain, one-group hierarchy == crossbar) — all
 * byte-identical at the serialized-result level, accounting included.
 */

#include <gtest/gtest.h>

#include <string>

#include "cluster/interconnect.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

ClusterConfig
clusterConfig(Topology topo)
{
    ClusterConfig cc = baseConfig().cluster;
    cc.topology = topo;
    return cc;
}

// --- Matrix unit tests -----------------------------------------------------

TEST(TopologyMatrix, LinearChainIsAbsoluteDistance)
{
    const ClusterConfig cc = clusterConfig(Topology::LinearChain);
    const Interconnect icn(cc);
    for (int f = 0; f < 4; ++f)
        for (int t = 0; t < 4; ++t) {
            const unsigned hops = static_cast<unsigned>(std::abs(f - t));
            EXPECT_EQ(icn.distance(f, t), hops);
            EXPECT_EQ(icn.latency(f, t), hops * cc.hopLatency);
        }
    EXPECT_EQ(icn.maxDistance(), 3u);
    EXPECT_FALSE(icn.isBus());
    EXPECT_FALSE(icn.isMesh());
}

TEST(TopologyMatrix, RingWrapsAround)
{
    ClusterConfig cc = clusterConfig(Topology::Ring);
    const Interconnect four(cc);
    EXPECT_EQ(four.distance(0, 3), 1u);   // wraps: 0 -> 3 directly
    EXPECT_EQ(four.distance(3, 0), 1u);
    EXPECT_EQ(four.distance(0, 2), 2u);
    EXPECT_EQ(four.distance(1, 3), 2u);
    EXPECT_EQ(four.latency(0, 3), cc.hopLatency);
    EXPECT_EQ(four.maxDistance(), 2u);
    EXPECT_TRUE(four.isMesh());

    cc.numClusters = 5;
    const Interconnect five(cc);
    EXPECT_EQ(five.distance(0, 3), 2u);   // the short way round
    EXPECT_EQ(five.distance(0, 4), 1u);
    EXPECT_EQ(five.maxDistance(), 2u);
}

TEST(TopologyMatrix, CrossbarIsOneHopEverywhere)
{
    const ClusterConfig cc = clusterConfig(Topology::Crossbar);
    const Interconnect icn(cc);
    for (int f = 0; f < 4; ++f)
        for (int t = 0; t < 4; ++t) {
            EXPECT_EQ(icn.distance(f, t), f == t ? 0u : 1u);
            EXPECT_EQ(icn.latency(f, t),
                      f == t ? 0u : cc.hopLatency);
        }
    EXPECT_EQ(icn.maxDistance(), 1u);
}

TEST(TopologyMatrix, HierarchicalChargesGroupCrossings)
{
    ClusterConfig cc = clusterConfig(Topology::Hierarchical);
    cc.hierGroupSize = 2;
    cc.hierGroupLatency = 3;
    const Interconnect icn(cc);
    // Clusters {0,1} and {2,3} form groups: one hop inside, two hops
    // plus the group-link penalty across.
    EXPECT_EQ(icn.distance(0, 1), 1u);
    EXPECT_EQ(icn.latency(0, 1), cc.hopLatency);
    EXPECT_EQ(icn.distance(0, 2), 2u);
    EXPECT_EQ(icn.latency(0, 2), 2 * cc.hopLatency + 3);
    EXPECT_EQ(icn.distance(1, 3), 2u);
    EXPECT_EQ(icn.maxDistance(), 2u);
}

TEST(TopologyMatrix, BusIsUniformSingleHop)
{
    const ClusterConfig cc = clusterConfig(Topology::Bus);
    const Interconnect icn(cc);
    for (int f = 0; f < 4; ++f)
        for (int t = 0; t < 4; ++t) {
            EXPECT_EQ(icn.distance(f, t), f == t ? 0u : 1u);
            EXPECT_EQ(icn.latency(f, t),
                      f == t ? 0u : cc.busLatency);
        }
    EXPECT_TRUE(icn.isBus());
    EXPECT_EQ(icn.maxDistance(), 1u);
}

TEST(TopologyMatrix, NamesRoundTripAndMeshParsesAsRing)
{
    for (const Topology t :
         {Topology::LinearChain, Topology::Ring, Topology::Crossbar,
          Topology::Hierarchical, Topology::Bus}) {
        Topology parsed = Topology::LinearChain;
        EXPECT_TRUE(parseTopology(topologyName(t), parsed))
            << topologyName(t);
        EXPECT_EQ(parsed, t);
    }
    Topology parsed = Topology::LinearChain;
    EXPECT_TRUE(parseTopology("mesh", parsed));
    EXPECT_EQ(parsed, Topology::Ring);
    EXPECT_FALSE(parseTopology("torus", parsed));
}

TEST(TopologyMatrix, CentralityOrderIsTopologyIndependent)
{
    // The FDRT middle-first funnel must not change when only the
    // interconnect changes — it is part of the golden contract for
    // the pre-existing presets.
    const std::vector<ClusterId> expected =
        Interconnect(clusterConfig(Topology::LinearChain)).byCentrality();
    ASSERT_EQ(expected.size(), 4u);
    EXPECT_EQ(expected[0], 1);
    EXPECT_EQ(expected[1], 2);
    for (const Topology t : {Topology::Ring, Topology::Crossbar,
                             Topology::Hierarchical, Topology::Bus})
        EXPECT_EQ(Interconnect(clusterConfig(t)).byCentrality(),
                  expected)
            << topologyName(t);
}

// --- Differential oracles --------------------------------------------------

SimResult
runConfig(SimConfig cfg, AssignStrategy strategy)
{
    cfg.assign.strategy = strategy;
    cfg.instructionLimit = 25'000;
    cfg.checkLevel = 1;
    cfg.obs.accounting = true;
    const Program prog = workloads::build("gzip");
    CtcpSimulator sim(cfg, prog);
    return sim.run();
}

TEST(TopologyDifferential, CrossbarMatchesUnboundedBus)
{
    // A crossbar with hop latency L is a bus with broadcast latency L
    // and unlimited bandwidth: identical distance matrices (all ones)
    // and identical effective operand readiness (completeAt + L), so
    // the runs must be byte-identical — accounting included.
    SimConfig crossbar = baseConfig();
    crossbar.cluster.topology = Topology::Crossbar;

    SimConfig bus = baseConfig();
    bus.cluster.topology = Topology::Bus;
    bus.cluster.busLatency = bus.cluster.hopLatency;
    bus.cluster.busBandwidth = 1u << 20;

    for (const AssignStrategy s :
         {AssignStrategy::BaseSlotOrder, AssignStrategy::Fdrt}) {
        const SimResult a = runConfig(crossbar, s);
        const SimResult b = runConfig(bus, s);
        EXPECT_EQ(a.toJson(false, true), b.toJson(false, true))
            << assignStrategyName(s);
    }
}

TEST(TopologyDifferential, TwoClusterRingMatchesLinearChain)
{
    // With two clusters the ring's wraparound link IS the chain link:
    // min(|0-1|, 2-|0-1|) == 1 either way.
    SimConfig linear = baseConfig();
    applyMachineScale(linear, 2, 4);

    SimConfig ring = linear;
    ring.cluster.topology = Topology::Ring;

    const SimResult a = runConfig(linear, AssignStrategy::Fdrt);
    const SimResult b = runConfig(ring, AssignStrategy::Fdrt);
    EXPECT_EQ(a.toJson(false, true), b.toJson(false, true));
}

TEST(TopologyDifferential, OneGroupHierarchyMatchesCrossbar)
{
    // When every cluster shares one group, the hierarchy never pays
    // the group link: all remote pairs are one intra-group hop, which
    // is exactly the crossbar (the group latency must be dead).
    SimConfig crossbar = baseConfig();
    crossbar.cluster.topology = Topology::Crossbar;

    SimConfig hier = baseConfig();
    hier.cluster.topology = Topology::Hierarchical;
    hier.cluster.hierGroupSize = 8;       // >= numClusters: one group
    hier.cluster.hierGroupLatency = 99;   // must never be charged

    const SimResult a = runConfig(crossbar, AssignStrategy::Fdrt);
    const SimResult b = runConfig(hier, AssignStrategy::Fdrt);
    EXPECT_EQ(a.toJson(false, true), b.toJson(false, true));
}

} // namespace
} // namespace ctcp
