/**
 * @file
 * Cycle-accounting tests: the closed issue-slot taxonomy.
 *
 * The load-bearing property is conservation — every cluster's
 * attributed slot-cycles sum to exactly cycles x issue width, for
 * every assignment strategy, with the invariant checker on. On top of
 * that: the taxonomy must be invisible to the golden contract
 * (default serializations byte-identical whether accounting runs or
 * not), exported only behind the explicit flag, and round-trip
 * through the campaign journal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "obs/accounting.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

SimResult
runWithAccounting(AssignStrategy strategy, const std::string &bench,
                  std::uint64_t budget, unsigned check_level)
{
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = strategy;
    cfg.instructionLimit = budget;
    cfg.checkLevel = check_level;
    cfg.obs.accounting = true;
    Program prog = workloads::build(bench);
    CtcpSimulator sim(cfg, prog);
    return sim.run();
}

double
acct(const SimResult &r, const std::string &key)
{
    const auto it = r.accounting.find(key);
    EXPECT_NE(it, r.accounting.end()) << "missing accounting key " << key;
    return it != r.accounting.end() ? it->second : 0.0;
}

// --- The conservation law --------------------------------------------------

class AccountingConservation
    : public ::testing::TestWithParam<AssignStrategy>
{
};

TEST_P(AccountingConservation, SlotsSumToCyclesTimesWidth)
{
    // checkLevel 1: the per-cycle invariant checker must coexist with
    // the accounting hooks without perturbing either.
    const SimResult r =
        runWithAccounting(GetParam(), "gzip", 40'000, 1);
    const double cycles = acct(r, "cycles");
    const auto clusters = static_cast<unsigned>(acct(r, "num_clusters"));
    const auto width = static_cast<unsigned>(acct(r, "cluster_width"));
    ASSERT_GT(cycles, 0.0);
    ASSERT_GT(clusters, 0u);
    ASSERT_GT(width, 0u);

    double machine = 0.0;
    for (unsigned c = 0; c < clusters; ++c) {
        double cluster_sum = 0.0;
        for (unsigned k = 0; k < numSlotCats; ++k)
            cluster_sum += acct(r, "cluster" + std::to_string(c) +
                                       ".slots." +
                                       slotCatName(static_cast<SlotCat>(k)));
        // Exact, not approximate: every slot of every cycle must land
        // in exactly one category.
        EXPECT_EQ(cluster_sum, cycles * width) << "cluster " << c;
        machine += cluster_sum;
    }
    EXPECT_EQ(machine, acct(r, "slots.total"));
    EXPECT_EQ(machine, cycles * clusters * width);

    // The machine-wide per-category rollup must agree with the
    // per-cluster breakdown.
    for (unsigned k = 0; k < numSlotCats; ++k) {
        const char *name = slotCatName(static_cast<SlotCat>(k));
        double sum = 0.0;
        for (unsigned c = 0; c < clusters; ++c)
            sum += acct(r, "cluster" + std::to_string(c) + ".slots." +
                               name);
        EXPECT_EQ(sum, acct(r, std::string("slots.") + name)) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AccountingConservation,
                         ::testing::Values(AssignStrategy::BaseSlotOrder,
                                           AssignStrategy::Friendly,
                                           AssignStrategy::Fdrt,
                                           AssignStrategy::IssueTime,
                                           AssignStrategy::Adaptive),
                         [](const auto &info) {
                             switch (info.param) {
                               case AssignStrategy::BaseSlotOrder:
                                 return "base";
                               case AssignStrategy::Friendly:
                                 return "friendly";
                               case AssignStrategy::Fdrt:
                                 return "fdrt";
                               case AssignStrategy::IssueTime:
                                 return "issue_time";
                               case AssignStrategy::Adaptive:
                                 return "adaptive";
                             }
                             return "unknown";
                         });

// --- The conservation law across the design space --------------------------

/**
 * The property that makes the topology x policy engine trustworthy:
 * for EVERY topology, cluster count and strategy, the taxonomy stays
 * closed (conservation), and the wait_fwdN bins beyond the topology's
 * reachable hop support stay exactly zero (a crossbar machine that
 * books 2-hop waits has a broken distance matrix).
 */
class DesignSpaceConservation : public ::testing::TestWithParam<Topology>
{
};

TEST_P(DesignSpaceConservation, ClosedTaxonomyOnEveryMachineShape)
{
    const Topology topo = GetParam();
    const Program prog = workloads::build("gzip");
    for (const unsigned clusters : {2u, 4u, 8u}) {
        for (const AssignStrategy strategy :
             {AssignStrategy::BaseSlotOrder, AssignStrategy::Friendly,
              AssignStrategy::Fdrt, AssignStrategy::IssueTime,
              AssignStrategy::Adaptive}) {
            SCOPED_TRACE(std::string(topologyName(topo)) + "/c" +
                         std::to_string(clusters) + "/" +
                         assignStrategyName(strategy));
            SimConfig cfg = baseConfig();
            cfg.cluster.topology = topo;
            applyMachineScale(cfg, clusters, cfg.cluster.clusterWidth);
            cfg.assign.strategy = strategy;
            cfg.instructionLimit = 15'000;
            cfg.checkLevel = 1;
            cfg.obs.accounting = true;
            CtcpSimulator sim(cfg, prog);
            const SimResult r = sim.run();

            const double cycles = acct(r, "cycles");
            const auto width =
                static_cast<unsigned>(acct(r, "cluster_width"));
            ASSERT_GT(cycles, 0.0);
            double machine = 0.0;
            for (unsigned c = 0; c < clusters; ++c) {
                double cluster_sum = 0.0;
                for (unsigned k = 0; k < numSlotCats; ++k)
                    cluster_sum +=
                        acct(r, "cluster" + std::to_string(c) +
                                    ".slots." +
                                    slotCatName(static_cast<SlotCat>(k)));
                EXPECT_EQ(cluster_sum, cycles * width)
                    << "cluster " << c;
                machine += cluster_sum;
            }
            EXPECT_EQ(machine, acct(r, "slots.total"));

            // Wait bins past the topology's reachable hop support must
            // be structurally zero.
            const Interconnect icn(cfg.cluster);
            if (icn.maxDistance() < 2) {
                EXPECT_EQ(acct(r, "slots.wait_fwd2"), 0.0);
            }
            if (icn.maxDistance() < 3) {
                EXPECT_EQ(acct(r, "slots.wait_fwd3"), 0.0);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, DesignSpaceConservation,
                         ::testing::Values(Topology::LinearChain,
                                           Topology::Ring,
                                           Topology::Crossbar,
                                           Topology::Hierarchical,
                                           Topology::Bus),
                         [](const auto &info) {
                             return topologyName(info.param);
                         });

// --- Plausibility of the attribution ---------------------------------------

TEST(Accounting, UsefulSlotsMatchRetireBudgetScale)
{
    const SimResult r = runWithAccounting(AssignStrategy::BaseSlotOrder,
                                          "gzip", 40'000, 0);
    // Useful slots are dispatches; at least one per retired
    // instruction (squashed work can push it higher).
    EXPECT_GE(acct(r, "slots.useful"),
              static_cast<double>(r.instructions));
    EXPECT_LT(acct(r, "slots.useful"), acct(r, "slots.total"));
}

TEST(Accounting, ForwardingMatrixHasOffDiagonalTraffic)
{
    const SimResult r = runWithAccounting(AssignStrategy::BaseSlotOrder,
                                          "gzip", 40'000, 0);
    const auto clusters = static_cast<int>(acct(r, "num_clusters"));
    double off_diagonal = 0.0, diagonal = 0.0;
    for (int f = 0; f < clusters; ++f)
        for (int t = 0; t < clusters; ++t) {
            const double v = acct(r, "fwd_matrix." + std::to_string(f) +
                                         "." + std::to_string(t));
            (f == t ? diagonal : off_diagonal) += v;
        }
    // A clustered machine without inter-cluster value traffic means
    // the hooks are dead; the diagonal is intra-cluster bypass.
    EXPECT_GT(off_diagonal, 0.0);
    EXPECT_GT(diagonal, 0.0);
    EXPECT_EQ(diagonal + off_diagonal, acct(r, "forwards.total"));
}

TEST(Accounting, BusWaitsBinAsSingleHop)
{
    // On the shared bus every remote cluster is one broadcast away, so
    // the distance matrix must book ALL inter-cluster waiting as
    // wait_fwd1 — a bus machine with 2-hop waits means the special
    // case regressed into the linear distance formula.
    SimConfig cfg = baseConfig();
    cfg.cluster.topology = Topology::Bus;
    cfg.instructionLimit = 40'000;
    cfg.obs.accounting = true;
    const Program prog = workloads::build("gzip");
    const SimResult r = CtcpSimulator(cfg, prog).run();
    EXPECT_GT(acct(r, "slots.wait_fwd1"), 0.0);
    EXPECT_EQ(acct(r, "slots.wait_fwd2"), 0.0);
    EXPECT_EQ(acct(r, "slots.wait_fwd3"), 0.0);
}

TEST(Accounting, AdaptiveFeedbackDoesNotLeakIntoExports)
{
    // Strategy Adaptive runs the taxonomy internally as its feedback
    // signal; without the user-facing flag the accounting block must
    // stay empty while the chooser's own telemetry still exports.
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Adaptive;
    cfg.instructionLimit = 30'000;
    const Program prog = workloads::build("gzip");
    const SimResult r = CtcpSimulator(cfg, prog).run();
    EXPECT_TRUE(r.accounting.empty());
    EXPECT_EQ(r.toJson(false, true).find("\"accounting\""),
              std::string::npos);
    EXPECT_NE(r.metrics.find("adaptive.switches"), r.metrics.end());
    EXPECT_NE(r.metrics.find("adaptive.intervals"), r.metrics.end());
}

TEST(Accounting, MigrationCountersExportedForFdrt)
{
    const SimResult r = runWithAccounting(AssignStrategy::Fdrt, "gzip",
                                          40'000, 0);
    EXPECT_NE(r.accounting.find("migration.revisits"),
              r.accounting.end());
    EXPECT_NE(r.accounting.find("migration.chain_revisits"),
              r.accounting.end());
}

// --- Golden invisibility ---------------------------------------------------

TEST(Accounting, DefaultSerializationsByteIdenticalEitherWay)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;strategy=base,fdrt;budget=20000");
    campaign::Options plain;
    plain.jobs = 2;
    campaign::Options counted = plain;
    counted.accounting = true;

    const campaign::Report off = campaign::runCampaign(jobs, plain);
    const campaign::Report on = campaign::runCampaign(jobs, counted);
    ASSERT_EQ(off.failed(), 0u);
    ASSERT_EQ(on.failed(), 0u);

    // The golden contract: default JSON does not change when
    // accounting runs — neither from perturbed simulation nor from
    // leaked keys.
    EXPECT_EQ(off.toJson(), on.toJson());

    // And the opt-in flag is the only way the taxonomy surfaces.
    EXPECT_EQ(on.toJson().find("\"accounting\""), std::string::npos);
    EXPECT_NE(on.toJson(false, true).find("\"accounting\""),
              std::string::npos);
    EXPECT_NE(on.toJson(false, true).find("slots.useful"),
              std::string::npos);
    // Accounting-off jobs have nothing to export even when asked.
    EXPECT_EQ(off.toJson(false, true).find("\"accounting\""),
              std::string::npos);
}

TEST(Accounting, SingleRunJsonGatedByFlag)
{
    const SimResult r = runWithAccounting(AssignStrategy::BaseSlotOrder,
                                          "gzip", 20'000, 0);
    ASSERT_FALSE(r.accounting.empty());
    EXPECT_EQ(r.toJson().find("\"accounting\""), std::string::npos);
    const std::string with = r.toJson(false, true);
    EXPECT_NE(with.find("\"accounting\""), std::string::npos);
    EXPECT_NE(with.find("\"slots.total\""), std::string::npos);
}

// --- Journal round-trip ----------------------------------------------------

TEST(Accounting, JournalRoundTripsAccountingBlock)
{
    campaign::JobOutcome outcome;
    outcome.label = "gzip/base";
    outcome.benchmark = "gzip";
    outcome.status = campaign::JobStatus::Ok;
    outcome.result = runWithAccounting(AssignStrategy::BaseSlotOrder,
                                       "gzip", 20'000, 0);
    ASSERT_FALSE(outcome.result.accounting.empty());

    const std::string line = campaign::encodeJournalRecord(7, outcome);
    campaign::JournalRecord record;
    ASSERT_TRUE(campaign::decodeJournalRecord(line, record));
    EXPECT_EQ(record.index, 7u);
    EXPECT_EQ(record.outcome.result.accounting,
              outcome.result.accounting);
    // The replayed result must serialize identically — that is what
    // makes resumed campaigns byte-identical.
    EXPECT_EQ(record.outcome.result.toJson(false, true),
              outcome.result.toJson(false, true));
}

// --- Unit-level taxonomy behaviour -----------------------------------------

TEST(CycleAccountingUnit, WaitCategoryClampsAtThreeHops)
{
    EXPECT_EQ(CycleAccounting::waitCategory(0), SlotCat::WaitIntra);
    EXPECT_EQ(CycleAccounting::waitCategory(1), SlotCat::WaitFwd1);
    EXPECT_EQ(CycleAccounting::waitCategory(2), SlotCat::WaitFwd2);
    EXPECT_EQ(CycleAccounting::waitCategory(3), SlotCat::WaitFwd3);
    EXPECT_EQ(CycleAccounting::waitCategory(9), SlotCat::WaitFwd3);
}

TEST(CycleAccountingUnit, EmptySlotPriorityIsBackpressureFirst)
{
    const ClusterConfig cc = baseConfig().cluster;
    const Interconnect icn(cc);
    CycleAccounting acct(cc.numClusters, cc.clusterWidth, icn);

    // Cycle 1: RS-full on cluster 0 beats everything; cluster 1 sees
    // the ROB-full flag; a flag noted THIS cycle explains NEXT
    // cycle's empty slots (flags are double-buffered).
    acct.beginCycle(CycleAccounting::FetchState::Flowing);
    acct.noteRsFull(0);
    acct.noteRobFull();
    acct.addEmptySlots(0, 1);
    acct.addEmptySlots(1, 1);
    EXPECT_EQ(acct.slots(0, SlotCat::Idle), 1u);   // flags not yet visible
    EXPECT_EQ(acct.slots(1, SlotCat::Idle), 1u);

    acct.beginCycle(CycleAccounting::FetchState::TcMiss);
    acct.addEmptySlots(0, 2);
    acct.addEmptySlots(1, 2);
    EXPECT_EQ(acct.slots(0, SlotCat::RsFull), 2u);
    EXPECT_EQ(acct.slots(1, SlotCat::RobFull), 2u);

    // Cycle 3: no back-pressure flags pending, so the fetch state
    // decides; then with fetch flowing, slots are genuinely idle.
    acct.beginCycle(CycleAccounting::FetchState::Redirect);
    acct.addEmptySlots(0, 3);
    EXPECT_EQ(acct.slots(0, SlotCat::FetchRedirect), 3u);
    acct.beginCycle(CycleAccounting::FetchState::TcMiss);
    acct.addEmptySlots(1, 1);
    EXPECT_EQ(acct.slots(1, SlotCat::FetchTcMiss), 1u);
    acct.beginCycle(CycleAccounting::FetchState::Flowing);
    acct.addEmptySlots(0, 4);
    EXPECT_EQ(acct.slots(0, SlotCat::Idle), 5u);

    EXPECT_EQ(acct.cycles(), 5u);
}

TEST(CycleAccountingUnit, ExportIsComplete)
{
    const ClusterConfig cc = baseConfig().cluster;
    const Interconnect icn(cc);
    CycleAccounting acct(cc.numClusters, cc.clusterWidth, icn);
    acct.beginCycle(CycleAccounting::FetchState::Flowing);
    acct.addSlots(2, SlotCat::Useful, 3);
    acct.noteForward(1, 3);

    std::map<std::string, double> out;
    acct.exportTo(out);
    EXPECT_EQ(out.at("cycles"), 1.0);
    EXPECT_EQ(out.at("slots.useful"), 3.0);
    EXPECT_EQ(out.at("cluster2.slots.useful"), 3.0);
    EXPECT_EQ(out.at("fwd_matrix.1.3"), 1.0);
    EXPECT_EQ(out.at("forwards.total"), 1.0);
    // Every (cluster, category) pair exports, zeros included, so
    // comparator runs never see structurally different reports.
    for (unsigned c = 0; c < cc.numClusters; ++c)
        for (unsigned k = 0; k < numSlotCats; ++k)
            EXPECT_NE(out.find("cluster" + std::to_string(c) +
                               ".slots." +
                               slotCatName(static_cast<SlotCat>(k))),
                      out.end());
}

} // namespace
} // namespace ctcp
