/**
 * @file
 * Topology abstraction tests: the distance/latency matrices of every
 * interconnect variant, the legacy mesh/bus flag aliases, and the
 * differential oracles that tie the new topologies to machines the
 * repo already trusts (crossbar == unbounded bus, 2-cluster ring ==
 * 2-cluster linear chain, one-group hierarchy == crossbar) — all
 * byte-identical at the serialized-result level, accounting included.
 * Also the equality, key and canonical-topology rules by which a
 * campaign runs each distinct simulation once: keys agree exactly when
 * configs do, and machines with one canonical config simulate
 * byte-identically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/matrix.hh"
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

// --- Canonical configs: equality, keys and the topology rule -------------

/**
 * Every machine the presets and the matrix axes describe: each preset
 * alone and crossed with every topology and cluster count 1-8, plus
 * hierarchies of every cluster count with other group sizes and group
 * latencies.
 */
std::vector<SimConfig>
matrixMachines()
{
    std::vector<SimConfig> out;
    const std::string presets = "bench=gzip;preset=base,mesh,onecycle,"
                                "twocluster,bus,eightcluster,ring,"
                                "crossbar,hier";
    const std::string topologies = ";topology=linear,ring,crossbar,hier,bus";
    const std::string clusters = ";clusters=1,2,3,4,5,6,7,8";
    for (const std::string &axes :
         {std::string(), topologies, clusters, topologies + clusters})
        for (const campaign::Job &job :
             campaign::parseMatrix(presets + axes))
            out.push_back(job.config);
    for (unsigned n = 1; n <= maxClusters; ++n)
        for (const unsigned size : {1u, 3u, 4u, 8u})
            for (const unsigned latency : {0u, 3u}) {
                SimConfig cfg = baseConfig();
                applyMachineScale(cfg, n, cfg.cluster.clusterWidth);
                cfg.cluster.topology = Topology::Hierarchical;
                cfg.cluster.hierGroupSize = size;
                cfg.cluster.hierGroupLatency = latency;
                out.push_back(cfg);
            }
    return out;
}

/** The machines above, plus every strategy and three budgets. */
std::vector<SimConfig>
matrixConfigs()
{
    std::vector<SimConfig> out = matrixMachines();
    for (const campaign::Job &job : campaign::parseMatrix(
             "bench=gzip;preset=base,mesh,twocluster,bus,eightcluster;"
             "strategy=base,friendly,fdrt,issue-time,issue-time:0,"
             "issue-time:4,adaptive;budget=3000,20000,300000"))
        out.push_back(job.config);
    return out;
}

/** Expect == and key equality to agree on every pair of @p configs. */
void
expectKeyEqualityMatches(const std::vector<SimConfig> &configs)
{
    std::vector<std::string> keys;
    for (const SimConfig &cfg : configs)
        keys.push_back(configKey(cfg));
    std::size_t equal_pairs = 0, disagreements = 0;
    for (std::size_t i = 0; i < configs.size(); ++i)
        for (std::size_t j = i + 1; j < configs.size(); ++j) {
            const bool equal = configs[i] == configs[j];
            equal_pairs += equal;
            if (equal != (keys[i] == keys[j]) && disagreements++ == 0)
                ADD_FAILURE() << "configs " << i << " and " << j
                              << (equal ? " are equal" : " differ")
                              << " but their keys do not agree:\n"
                              << keys[i] << "\n" << keys[j];
        }
    EXPECT_EQ(disagreements, 0u);
    // The set must hold equal pairs, or the test shows nothing.
    EXPECT_GT(equal_pairs, 0u);
}

TEST(ConfigKey, EqualExactlyWhenKeysAre)
{
    const std::vector<SimConfig> configs = matrixConfigs();
    expectKeyEqualityMatches(configs);

    std::vector<SimConfig> canonical;
    for (const SimConfig &cfg : configs)
        canonical.push_back(canonicalTopology(cfg));
    expectKeyEqualityMatches(canonical);
}

TEST(ConfigKey, EveryFieldInDeclarationOrderThenItsHash)
{
    const SimConfig cfg = baseConfig();
    const std::string key = configKey(cfg);
    EXPECT_EQ(key.rfind("cluster.numClusters=4;cluster.clusterWidth=4;", 0),
              0u)
        << key;
    const std::size_t hash = key.find('#');
    ASSERT_NE(hash, std::string::npos);
    EXPECT_NE(key.find(";deadlineSeconds=0;#"), std::string::npos) << key;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(configHash(cfg)));
    EXPECT_EQ(key.substr(hash + 1), hex);

    // Quoted strings keep the key injective: a path that spells out
    // the fields after it is still one field.
    SimConfig tricky = cfg;
    tricky.obs.traceFilter = "\";obs.intervalPath=\"x";
    SimConfig plain = cfg;
    plain.obs.intervalPath = "x";
    EXPECT_NE(configKey(tricky), configKey(plain));
    // -0 equals 0, so it keys as 0.
    SimConfig negative_zero = cfg;
    negative_zero.deadlineSeconds = -0.0;
    EXPECT_TRUE(negative_zero == cfg);
    EXPECT_EQ(configKey(negative_zero), key);
}

/** @p n clusters of four slots on @p topology. */
SimConfig
machine(unsigned n, Topology topology)
{
    SimConfig cfg = baseConfig();
    applyMachineScale(cfg, n, cfg.cluster.clusterWidth);
    cfg.cluster.topology = topology;
    return cfg;
}

TEST(CanonicalTopology, TwoClusterPointToPointMachinesAreOne)
{
    // One link between two clusters: every point-to-point topology
    // builds the same network, and canonically it is the chain.
    const SimConfig linear = machine(2, Topology::LinearChain);
    EXPECT_TRUE(canonicalTopology(linear) == linear);
    for (const Topology t :
         {Topology::Ring, Topology::Crossbar, Topology::Hierarchical}) {
        const SimConfig other = machine(2, t);
        EXPECT_FALSE(other == linear) << topologyName(t);
        EXPECT_TRUE(canonicalTopology(other) == linear)
            << topologyName(t);
    }
    // The bus arbitrates for bandwidth: never merged.
    EXPECT_FALSE(canonicalTopology(machine(2, Topology::Bus)) == linear);
}

TEST(CanonicalTopology, DistinctNetworksStayDistinct)
{
    // Four clusters: the ring links the ends, the chain does not.
    EXPECT_FALSE(canonicalTopology(machine(4, Topology::Ring)) ==
                 canonicalTopology(machine(4, Topology::LinearChain)));
    // Two groups of two: crossing a group costs a second hop.
    EXPECT_FALSE(canonicalTopology(machine(4, Topology::Hierarchical)) ==
                 canonicalTopology(machine(4, Topology::Crossbar)));
    // One group is the crossbar, whatever the dead group latency.
    SimConfig one_group = machine(4, Topology::Hierarchical);
    one_group.cluster.hierGroupSize = 4;
    one_group.cluster.hierGroupLatency = 99;
    EXPECT_TRUE(canonicalTopology(one_group) ==
                machine(4, Topology::Crossbar));
    // A group latency that is charged is a different machine.
    SimConfig slow_groups = machine(8, Topology::Hierarchical);
    slow_groups.cluster.hierGroupLatency = 3;
    EXPECT_TRUE(canonicalTopology(slow_groups) == slow_groups);
    // A bus as fast as a hop has the crossbar's tables, but it still
    // arbitrates for bandwidth.
    SimConfig fast_bus = machine(4, Topology::Bus);
    fast_bus.cluster.busLatency = fast_bus.cluster.hopLatency;
    SimConfig crossbar = machine(4, Topology::Crossbar);
    crossbar.cluster.busLatency = crossbar.cluster.hopLatency;
    EXPECT_FALSE(canonicalTopology(fast_bus) == crossbar);
    // A config that does not validate is left as it is.
    SimConfig invalid = machine(2, Topology::Hierarchical);
    invalid.cluster.hierGroupSize = 0;
    EXPECT_TRUE(canonicalTopology(invalid) == invalid);
}

TEST(CanonicalTopology, EqualCanonicalMachinesSimulateIdentically)
{
    // Soundness of the rule: among the matrix machines, every group
    // with one canonical config and more than one raw config is run
    // member by member (caller builders, so nothing is shared) on two
    // benchmarks and three strategies, and every member's result must
    // match its group's first byte for byte.
    std::map<std::string, std::vector<SimConfig>> groups;
    for (const SimConfig &cfg : matrixMachines()) {
        std::vector<SimConfig> &members =
            groups[configKey(canonicalTopology(cfg))];
        bool seen = false;
        for (const SimConfig &m : members)
            seen = seen || m == cfg;
        if (!seen)
            members.push_back(cfg);
    }

    std::vector<campaign::Job> jobs;
    std::vector<std::size_t> first;   // per job: its group's first job
    for (const auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        for (const char *bench : {"gzip", "twolf"})
            for (const auto &[strategy, latency] :
                 {std::pair{AssignStrategy::BaseSlotOrder, 0u},
                  std::pair{AssignStrategy::IssueTime, 4u},
                  std::pair{AssignStrategy::Adaptive, 0u}}) {
                const std::size_t head = jobs.size();
                for (SimConfig cfg : members) {
                    cfg.assign.strategy = strategy;
                    if (strategy == AssignStrategy::IssueTime)
                        cfg.assign.issueTimeLatency = latency;
                    cfg.instructionLimit = 3000;
                    campaign::Job job;
                    job.label = std::to_string(jobs.size());
                    job.benchmark = bench;
                    job.config = cfg;
                    job.builder = [name = std::string(bench)] {
                        return workloads::build(name);
                    };
                    first.push_back(head);
                    jobs.push_back(std::move(job));
                }
            }
    }
    // Two-cluster point-to-point and one-group hierarchies, at least.
    ASSERT_GE(jobs.size(), 4u * 2 * 3);

    campaign::Options options;
    options.jobs = 4;
    const campaign::Report report = campaign::runCampaign(jobs, options);
    ASSERT_EQ(report.failed(), 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(report.jobs[i].result.toJson(),
                  report.jobs[first[i]].result.toJson())
            << configKey(jobs[i].config) << "\nagainst\n"
            << configKey(jobs[first[i]].config);
}

} // namespace
} // namespace ctcp
