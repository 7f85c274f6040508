/**
 * @file
 * The fill unit: constructs trace lines from the retiring instruction
 * stream, performs intra-trace dependency analysis, invokes the
 * retire-time cluster-assignment policy, and inserts the finished line
 * into the trace cache.
 *
 * Trace construction rules (Section 2.1 of the paper): a trace holds
 * up to maxInsts instructions and up to maxBlocks basic blocks; every
 * control transfer ends a basic block; an indirect transfer ends the
 * trace (its successor is not path-predictable).
 *
 * Because trace construction is deterministic in the retired stream,
 * refetching a line and retiring it reconstructs the same trace
 * identity, which is what lets the FDRT profile fields accumulate.
 */

#ifndef CTCPSIM_TRACECACHE_FILL_UNIT_HH
#define CTCPSIM_TRACECACHE_FILL_UNIT_HH

#include <vector>

#include "cluster/timed_inst.hh"
#include "config/sim_config.hh"
#include "stats/stats.hh"
#include "tracecache/assignment.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {

/** Observer interface for per-trace-construction instrumentation. */
class FillUnitObserver
{
  public:
    virtual ~FillUnitObserver() = default;
    /** Called after assignment, before the line is inserted. */
    virtual void onTraceConstructed(const TraceDraft &draft,
                                    const TraceLine &line) = 0;
};

/** Builds traces from the retire stream. */
class FillUnit
{
  public:
    FillUnit(const TraceCacheConfig &cfg, unsigned num_clusters,
             unsigned slots_per_cluster, TraceCache &tc,
             RetireAssignmentPolicy &policy);

    /**
     * Feed one retiring instruction (call in retirement order).
     * @param now retirement cycle (drives the configured fill latency)
     */
    void retire(const TimedInst &inst, Cycle now = 0);

    /** Finalize any partial trace (end of simulation). */
    void flush();

    /** Attach an instrumentation observer (not owned; may be null). */
    void setObserver(FillUnitObserver *observer) { observer_ = observer; }

    /** Attach an observability sink (null = off, the default). */
    void setObs(ObsSink *obs) { obs_ = obs; }

    std::uint64_t tracesBuilt() const { return traces_.value(); }

    /** Mean instructions per constructed trace. */
    double
    meanTraceSize() const
    {
        return ratio(instsInTraces_.value(), traces_.value());
    }

    void dumpStats(StatDump &out) const;

    /**
     * Intra-trace dependency analysis of @p draft, in O(n): a forward
     * pass over a last-writer table per register gives each
     * instruction's critical intra-trace producer (intraProducer), and
     * a backward pass over each register's next event gives
     * hasIntraConsumer (a later read before any redefinition; a read
     * by an instruction beats its own redefinition).
     */
    static void analyzeIntraTrace(TraceDraft &draft);

  private:
    /** What finalize() needs of a retired instruction besides its draft. */
    struct PendingInst
    {
        Opcode op = Opcode::Nop;
        bool taken = false;
    };

    void finalize(Cycle now);

    TraceCacheConfig cfg_;
    unsigned numClusters_;
    unsigned slotsPerCluster_;
    TraceCache &tc_;
    RetireAssignmentPolicy &policy_;
    FillUnitObserver *observer_ = nullptr;
    ObsSink *obs_ = nullptr;

    /**
     * The trace under construction. retire() builds each DraftInst in
     * place here, and finalize() analyses, places and clears it; both
     * vectors keep their capacity, so no trace allocates a draft.
     */
    TraceDraft draftScratch_;
    /** Parallel to draftScratch_.insts. */
    std::vector<PendingInst> pending_;
    /** Next PC after the latest retired instruction (line successor). */
    Addr successorPc_ = 0;
    unsigned blocks_ = 0;

    Counter traces_;
    Counter instsInTraces_;
};

} // namespace ctcp

#endif // CTCPSIM_TRACECACHE_FILL_UNIT_HH
