/**
 * @file
 * Reference (quadratic) versions of the fill unit's intra-trace
 * analysis and the Friendly slot-filling pass, kept as test oracles
 * for the O(n) and bitmask implementations in src/. Also a seeded
 * generator of random drafts that exercises the corner cases those
 * rewrites must preserve.
 */

#ifndef CTCPSIM_TESTS_PLACEMENT_REFERENCE_HH
#define CTCPSIM_TESTS_PLACEMENT_REFERENCE_HH

#include <cstddef>
#include <iterator>
#include <vector>

#include "common/random.hh"
#include "isa/instruction.hh"
#include "tracecache/assignment.hh"

namespace ctcp::test {

/** Critical intra-trace producer and intra-trace consumer, by scanning. */
inline void
referenceAnalyzeIntraTrace(TraceDraft &draft)
{
    const std::size_t n = draft.insts.size();
    // Critical intra-trace producer: last earlier writer of the
    // dynamically critical source register.
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst &d = draft.insts[i];
        d.intraProducer = -1;
        if (d.criticalSrc == 0)
            continue;
        const RegId reg = d.criticalSrc == 1 ? d.src1 : d.src2;
        if (reg == invalidReg || reg == zeroReg)
            continue;
        for (std::size_t j = i; j-- > 0;) {
            if (draft.insts[j].writesDst && draft.insts[j].dst == reg) {
                d.intraProducer = static_cast<int>(j);
                break;
            }
        }
    }
    // Intra-trace consumer: someone later reads our destination before
    // it is redefined.
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst &d = draft.insts[i];
        d.hasIntraConsumer = false;
        if (!d.writesDst)
            continue;
        for (std::size_t j = i + 1; j < n; ++j) {
            const DraftInst &c = draft.insts[j];
            if ((c.src1 == d.dst) || (c.src2 == d.dst)) {
                d.hasIntraConsumer = true;
                break;
            }
            if (c.writesDst && c.dst == d.dst)
                break;   // redefined before any use
        }
    }
}

/** Friendly's slot-centric pass, scanning every instruction per slot. */
inline void
referenceFillSlots(TraceDraft &draft, const std::vector<int> &slot_order)
{
    const std::size_t n = draft.insts.size();

    auto placed_cluster = [&](std::size_t i) -> ClusterId {
        const DraftInst &d = draft.insts[i];
        return d.physSlot >= 0 ? draft.clusterOfSlot(d.physSlot)
                               : invalidCluster;
    };

    for (int slot : slot_order) {
        const ClusterId cluster = draft.clusterOfSlot(slot);

        int match = -1;   // intra-trace producer placed on `cluster`
        int any = -1;     // fallback: oldest unplaced
        for (std::size_t i = 0; i < n; ++i) {
            DraftInst &d = draft.insts[i];
            if (d.physSlot >= 0)
                continue;
            if (any < 0)
                any = static_cast<int>(i);
            if (d.intraProducer >= 0 &&
                placed_cluster(static_cast<std::size_t>(d.intraProducer)) ==
                    cluster) {
                match = static_cast<int>(i);
                break;
            }
        }

        const int pick = match >= 0 ? match : any;
        if (pick < 0)
            break;   // all instructions placed
        draft.insts[static_cast<std::size_t>(pick)].physSlot = slot;
    }
}

/**
 * A random, unanalysed draft for a @p clusters x @p slots_per_cluster
 * machine: between one instruction and a full line, registers drawn
 * from a small pool so that dependences, redefinitions and
 * read-and-write-one-register instructions are common, with zeroReg
 * and invalidReg among the sources and destinations.
 */
inline TraceDraft
randomDraft(Rng &rng, unsigned clusters, unsigned slots_per_cluster)
{
    static constexpr RegId pool[] = {zeroReg, invalidReg, 1, 2, 3,
                                     4,       5,          33};
    auto reg = [&] { return pool[rng.below(std::size(pool))]; };

    TraceDraft d;
    d.numClusters = clusters;
    d.slotsPerCluster = slots_per_cluster;
    const unsigned total = clusters * slots_per_cluster;
    const std::size_t n = rng.chance(1, 4) ? total : 1 + rng.below(total);
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst di;
        di.pc = 100 + i;
        di.dst = reg();
        di.src1 = reg();
        di.src2 = reg();
        if (rng.chance(1, 6))
            di.src1 = di.dst;   // reads and writes one register
        di.writesDst = rng.chance(2, 3);
        di.criticalSrc = static_cast<int>(rng.below(3));
        // Stale analysis results the analysis must overwrite.
        di.intraProducer = static_cast<int>(rng.below(3)) - 1;
        di.hasIntraConsumer = rng.chance(1, 2);
        d.insts.push_back(di);
    }
    return d;
}

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_PLACEMENT_REFERENCE_HH
