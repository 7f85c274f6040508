/**
 * @file
 * Unit tests for the execution cluster: reservation stations, FU pool,
 * dispatch selection, and the interconnect distance model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/interconnect.hh"

namespace ctcp {
namespace {

/**
 * Test stand-in for the simulator's DispatchClient: same concrete
 * interface Cluster::dispatch expects, backed by std::function so
 * individual tests can swap behavior.
 */
struct TestHooks
{
    std::function<bool(const TimedInst &, Cycle)> readyFn =
        [](const TimedInst &, Cycle) { return true; };
    std::function<Cycle(TimedInst &, Cycle)> executeFn =
        [](TimedInst &, Cycle now) { return now + 1; };

    bool
    ready(const TimedInst &inst, Cycle now) const
    {
        return readyFn(inst, now);
    }

    Cycle
    execute(TimedInst &inst, Cycle now) const
    {
        return executeFn(inst, now);
    }
};

OwnedTimedInst
makeInst(InstSeqNum seq, Opcode op)
{
    OwnedTimedInst t;
    t.dyn.seq = seq;
    t.dyn.op = op;
    return t;
}

TEST(Interconnect, LinearDistances)
{
    ClusterConfig cfg;   // 4 clusters, hop 2, linear
    Interconnect ic(cfg);
    EXPECT_EQ(ic.distance(0, 0), 0u);
    EXPECT_EQ(ic.distance(0, 1), 1u);
    EXPECT_EQ(ic.distance(0, 3), 3u);
    EXPECT_EQ(ic.distance(3, 0), 3u);
    EXPECT_EQ(ic.latency(0, 3), 6u);   // 3 hops x 2 cycles
    EXPECT_TRUE(ic.adjacent(1, 2));
    EXPECT_FALSE(ic.adjacent(0, 2));
}

TEST(Interconnect, MeshClosesTheRing)
{
    ClusterConfig cfg;
    cfg.topology = Topology::Ring;
    Interconnect ic(cfg);
    EXPECT_EQ(ic.distance(0, 3), 1u);   // end clusters adjacent
    EXPECT_EQ(ic.distance(0, 2), 2u);
    EXPECT_EQ(ic.latency(0, 3), 2u);
    // A mesh of 4 never needs more than 2 hops.
    for (ClusterId a = 0; a < 4; ++a)
        for (ClusterId b = 0; b < 4; ++b)
            EXPECT_LE(ic.distance(a, b), 2u);
}

TEST(Interconnect, CentralityPrefersMiddle)
{
    ClusterConfig cfg;
    Interconnect ic(cfg);
    auto order = ic.byCentrality();
    ASSERT_EQ(order.size(), 4u);
    // The two middle clusters come first, the ends last.
    EXPECT_TRUE(order[0] == 1 || order[0] == 2);
    EXPECT_TRUE(order[1] == 1 || order[1] == 2);
    EXPECT_TRUE(order[2] == 0 || order[2] == 3);
}

TEST(Interconnect, BusUniformLatency)
{
    ClusterConfig cfg;
    cfg.topology = Topology::Bus;
    cfg.busLatency = 3;
    Interconnect ic(cfg);
    EXPECT_EQ(ic.latency(0, 0), 0u);
    EXPECT_EQ(ic.latency(0, 1), 3u);
    EXPECT_EQ(ic.latency(0, 3), 3u);   // uniform, not distance-scaled
    EXPECT_EQ(ic.distance(0, 3), 1u);  // every remote cluster is one hop
    EXPECT_EQ(ic.distance(2, 2), 0u);
    EXPECT_TRUE(ic.isBus());
}

TEST(Interconnect, HopLatencyScales)
{
    ClusterConfig cfg;
    cfg.hopLatency = 1;
    Interconnect ic(cfg);
    EXPECT_EQ(ic.latency(0, 2), 2u);
}

TEST(Interconnect, MatrixPropertiesHoldForEveryTopologyAndSize)
{
    // Structural properties every topology variant must satisfy at
    // every supported machine size: zero diagonal, symmetry, a
    // maxDistance that really is the matrix maximum, and adjacency
    // consistent with the distance matrix.
    for (const Topology topo :
         {Topology::LinearChain, Topology::Ring, Topology::Crossbar,
          Topology::Hierarchical, Topology::Bus}) {
        for (const unsigned n : {2u, 4u, 8u}) {
            ClusterConfig cfg;
            cfg.topology = topo;
            cfg.numClusters = n;
            const Interconnect ic(cfg);
            unsigned max_seen = 0;
            for (ClusterId a = 0; a < static_cast<int>(n); ++a) {
                EXPECT_EQ(ic.distance(a, a), 0u);
                EXPECT_EQ(ic.latency(a, a), 0u);
                for (ClusterId b = 0; b < static_cast<int>(n); ++b) {
                    EXPECT_EQ(ic.distance(a, b), ic.distance(b, a))
                        << topologyName(topo) << " n=" << n;
                    EXPECT_EQ(ic.latency(a, b), ic.latency(b, a));
                    EXPECT_EQ(ic.adjacent(a, b),
                              ic.distance(a, b) <= 1);
                    if (a != b) {
                        EXPECT_GE(ic.distance(a, b), 1u);
                        max_seen =
                            std::max(max_seen, ic.distance(a, b));
                    }
                }
            }
            EXPECT_EQ(ic.maxDistance(), max_seen)
                << topologyName(topo) << " n=" << n;
        }
    }
}

TEST(ReservationStation, CapacityAndPorts)
{
    ReservationStation rs(4, 2);
    OwnedTimedInst a = makeInst(1, Opcode::Add);
    OwnedTimedInst b = makeInst(2, Opcode::Add);
    OwnedTimedInst c = makeInst(3, Opcode::Add);

    EXPECT_TRUE(rs.tryInsert(&a, 10));
    EXPECT_TRUE(rs.tryInsert(&b, 10));
    EXPECT_FALSE(rs.tryInsert(&c, 10));   // out of write ports
    EXPECT_TRUE(rs.canInsert(11));
    EXPECT_TRUE(rs.tryInsert(&c, 11));    // new cycle, new ports
    EXPECT_EQ(rs.occupancy(), 3u);
}

TEST(ReservationStation, FullStopsInsertion)
{
    ReservationStation rs(2, 2);
    OwnedTimedInst a = makeInst(1, Opcode::Add);
    OwnedTimedInst b = makeInst(2, Opcode::Add);
    OwnedTimedInst c = makeInst(3, Opcode::Add);
    EXPECT_TRUE(rs.tryInsert(&a, 1));
    EXPECT_TRUE(rs.tryInsert(&b, 1));
    EXPECT_FALSE(rs.tryInsert(&c, 2));
    EXPECT_FALSE(rs.canInsert(2));
    rs.remove(&a);
    EXPECT_TRUE(rs.canInsert(2));
}

TEST(FuPool, SpecialPurposeCounts)
{
    FuPool pool;
    // Two simple integer units...
    FuPool::Slot alu0 = pool.tryReserve(FuKind::IntAlu, 0);
    ASSERT_TRUE(static_cast<bool>(alu0));
    alu0.commit(0, 1);
    FuPool::Slot alu1 = pool.tryReserve(FuKind::IntAlu, 0);
    ASSERT_TRUE(static_cast<bool>(alu1));
    alu1.commit(0, 1);
    EXPECT_FALSE(static_cast<bool>(pool.tryReserve(FuKind::IntAlu, 0)));
    // ...free again next cycle.
    EXPECT_TRUE(static_cast<bool>(pool.tryReserve(FuKind::IntAlu, 1)));
    // One complex unit with a long issue latency.
    FuPool::Slot cpx = pool.tryReserve(FuKind::IntComplex, 0);
    ASSERT_TRUE(static_cast<bool>(cpx));
    cpx.commit(0, 19);
    EXPECT_FALSE(static_cast<bool>(pool.tryReserve(FuKind::IntComplex, 18)));
    EXPECT_TRUE(static_cast<bool>(pool.tryReserve(FuKind::IntComplex, 19)));
}

TEST(FuPool, UncommittedSlotLeavesUnitFree)
{
    FuPool pool;
    {
        // Claim without commit: the dispatch loop backing out (the
        // instruction failed its ready check) must not book the unit.
        FuPool::Slot slot = pool.tryReserve(FuKind::IntComplex, 5);
        ASSERT_TRUE(static_cast<bool>(slot));
    }
    FuPool::Slot again = pool.tryReserve(FuKind::IntComplex, 5);
    EXPECT_TRUE(static_cast<bool>(again));
}

TEST(StationRouting, FuToStationMap)
{
    EXPECT_EQ(stationFor(FuKind::IntMem), StationKind::Mem);
    EXPECT_EQ(stationFor(FuKind::FpMem), StationKind::Mem);
    EXPECT_EQ(stationFor(FuKind::Branch), StationKind::Branch);
    EXPECT_EQ(stationFor(FuKind::IntComplex), StationKind::Complex);
    EXPECT_EQ(stationFor(FuKind::FpComplex), StationKind::Complex);
    EXPECT_EQ(stationFor(FuKind::IntAlu), StationKind::Simple0);
    EXPECT_EQ(stationFor(FuKind::FpBasic), StationKind::Simple0);
}

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterConfig cfg_;
    Cluster cluster_{0, cfg_};

    std::vector<TimedInst *>
    dispatch(Cycle now, const TestHooks &hooks = {})
    {
        std::vector<TimedInst *> out;
        cluster_.dispatch(now, hooks, out);
        return out;
    }
};

TEST_F(ClusterTest, SimpleOpsSplitAcrossTwoStations)
{
    // Four ALU inserts in one cycle succeed (2 ports x 2 stations).
    std::vector<OwnedTimedInst> insts;
    for (int i = 0; i < 5; ++i)
        insts.push_back(makeInst(static_cast<InstSeqNum>(i), Opcode::Add));
    unsigned accepted = 0;
    for (auto &inst : insts)
        accepted += cluster_.issue(&inst, 7) ? 1 : 0;
    EXPECT_EQ(accepted, 4u);
}

TEST_F(ClusterTest, DispatchOldestFirstUpToWidth)
{
    std::vector<OwnedTimedInst> insts;
    for (int i = 0; i < 6; ++i)
        insts.push_back(makeInst(static_cast<InstSeqNum>(10 - i),
                                 Opcode::Add));
    Cycle cycle = 0;
    for (auto &inst : insts)
        cluster_.issue(&inst, cycle++);

    auto done = dispatch(100);
    // Width 4, but only 2 ALUs: ALU issue latency 1 means both ALUs
    // can start one op each -> 2 dispatches this cycle.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_LT(done[0]->dyn.seq, done[1]->dyn.seq);
    EXPECT_EQ(done[0]->dyn.seq, 5u);   // oldest (10-5)
}

TEST_F(ClusterTest, DispatchHonorsReadiness)
{
    OwnedTimedInst a = makeInst(1, Opcode::Add);
    OwnedTimedInst b = makeInst(2, Opcode::Add);
    cluster_.issue(&a, 0);
    cluster_.issue(&b, 0);

    TestHooks hooks;
    hooks.readyFn = [](const TimedInst &inst, Cycle) {
        return inst.dyn.seq == 2;   // only b is ready
    };
    auto done = dispatch(1, hooks);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->dyn.seq, 2u);
    EXPECT_EQ(cluster_.occupancy(), 1u);
}

TEST_F(ClusterTest, MixedKindsDispatchInParallel)
{
    OwnedTimedInst alu = makeInst(1, Opcode::Add);
    OwnedTimedInst mem = makeInst(2, Opcode::Load);
    OwnedTimedInst br = makeInst(3, Opcode::Beq);
    OwnedTimedInst cpx = makeInst(4, Opcode::Mul);
    OwnedTimedInst extra = makeInst(5, Opcode::Sub);
    for (TimedInst *inst : {&alu, &mem, &br, &cpx, &extra})
        ASSERT_TRUE(cluster_.issue(inst, 0));

    auto done = dispatch(1);
    // Width caps at 4 even though 5 could structurally go.
    EXPECT_EQ(done.size(), 4u);
}

TEST_F(ClusterTest, ComplexIssueLatencyBlocksBackToBack)
{
    OwnedTimedInst d1 = makeInst(1, Opcode::Div);
    OwnedTimedInst d2 = makeInst(2, Opcode::Div);
    cluster_.issue(&d1, 0);
    cluster_.issue(&d2, 0);
    EXPECT_EQ(dispatch(1).size(), 1u);
    // The single divider is busy for issueLatency (19) cycles.
    EXPECT_EQ(dispatch(2).size(), 0u);
    EXPECT_EQ(dispatch(19).size(), 0u);
    EXPECT_EQ(dispatch(20).size(), 1u);
}

TEST(TimedInst, CompletionPushFillsWaiters)
{
    OwnedTimedInst producer = makeInst(1, Opcode::Add);
    producer.cluster = 2;
    OwnedTimedInst consumer = makeInst(2, Opcode::Add);
    consumer.ops[0].valid = true;
    consumer.ops[0].fromRF = false;
    consumer.ops[0].producerSeq = 1;
    producer.waiters.push_back(&consumer);

    producer.completeAt = 55;
    producer.pushCompletion();
    EXPECT_TRUE(consumer.ops[0].producerComplete);
    EXPECT_EQ(consumer.ops[0].rawReady, 55u);
    EXPECT_EQ(consumer.ops[0].producerCluster, 2);
    EXPECT_TRUE(producer.waiters.empty());
}

TEST_F(ClusterTest, DispatchOrderOldestReadyFirstAcrossStations)
{
    // Instructions spread across every station class, issued in
    // scrambled seq order (as issue-time steering can produce), with
    // one old instruction not yet operand-ready. Selection must visit
    // ready instructions in ascending seq regardless of station.
    OwnedTimedInst br = makeInst(7, Opcode::Beq);
    OwnedTimedInst mem = makeInst(3, Opcode::Load);
    OwnedTimedInst alu = makeInst(9, Opcode::Add);
    OwnedTimedInst cpx = makeInst(5, Opcode::Mul);
    OwnedTimedInst stale = makeInst(1, Opcode::Sub);
    stale.readyAt = 100;   // oldest, but operands arrive much later

    Cycle cycle = 0;
    for (TimedInst *inst : {&br, &mem, &alu, &cpx, &stale})
        ASSERT_TRUE(cluster_.issue(inst, cycle++));

    auto done = dispatch(10);
    // Width 4: the four ready ones go, oldest first; `stale` stays.
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0]->dyn.seq, 3u);
    EXPECT_EQ(done[1]->dyn.seq, 5u);
    EXPECT_EQ(done[2]->dyn.seq, 7u);
    EXPECT_EQ(done[3]->dyn.seq, 9u);
    EXPECT_EQ(cluster_.occupancy(), 1u);

    // Once its operands arrive, the old instruction dispatches.
    EXPECT_EQ(dispatch(99).size(), 0u);
    auto late = dispatch(100);
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0]->dyn.seq, 1u);
    EXPECT_EQ(cluster_.occupancy(), 0u);
}

TEST_F(ClusterTest, WakeMovesWaiterOntoSchedulableList)
{
    // A consumer with an outstanding producer is parked: the dispatch
    // loop must never select it, however many cycles pass.
    OwnedTimedInst consumer = makeInst(4, Opcode::Add);
    consumer.pendingProducers = 1;
    consumer.readyAt = neverCycle;
    ASSERT_TRUE(cluster_.issue(&consumer, 0));
    EXPECT_EQ(dispatch(50).size(), 0u);
    EXPECT_EQ(cluster_.occupancy(), 1u);

    // Producer completes: the core refreshes readyAt and wakes it.
    consumer.pendingProducers = 0;
    consumer.readyAt = 60;
    cluster_.wake(&consumer);
    EXPECT_EQ(dispatch(59).size(), 0u);   // forwarding not done yet
    auto done = dispatch(60);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->dyn.seq, 4u);
}

TEST(SchedList, InsertByAgeKeepsSeqOrder)
{
    SchedList list;
    OwnedTimedInst a = makeInst(10, Opcode::Add);
    OwnedTimedInst b = makeInst(20, Opcode::Add);
    OwnedTimedInst c = makeInst(15, Opcode::Add);
    OwnedTimedInst d = makeInst(5, Opcode::Add);
    for (TimedInst *inst : {&a, &b, &c, &d})
        list.insertByAge(inst);

    std::vector<InstSeqNum> seqs;
    for (TimedInst *it = list.head; it != nullptr; it = it->schedNext)
        seqs.push_back(it->dyn.seq);
    EXPECT_EQ(seqs, (std::vector<InstSeqNum>{5, 10, 15, 20}));

    list.unlink(&c);                      // middle
    list.unlink(&d);                      // head
    list.unlink(&b);                      // tail
    EXPECT_EQ(list.head, &a);
    EXPECT_EQ(list.tail, &a);
    list.unlink(&a);
    EXPECT_TRUE(list.empty());
}

TEST(ChainProfile, Membership)
{
    ChainProfile p;
    EXPECT_FALSE(p.isMember());
    p.role = ChainRole::Leader;
    EXPECT_FALSE(p.isMember());   // no cluster yet
    p.chainCluster = 2;
    EXPECT_TRUE(p.isMember());
}

} // namespace
} // namespace ctcp
