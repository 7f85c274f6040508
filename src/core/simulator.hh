/**
 * @file
 * CtcpSimulator — the public entry point of the library.
 *
 * Wires together the functional simulator, the trace-cache front end,
 * the fill unit with its retire-time assignment policy, four execution
 * clusters with the inter-cluster forwarding network, and the data
 * memory hierarchy, and advances them cycle by cycle.
 *
 * Typical use:
 * @code
 *   SimConfig cfg = baseConfig();
 *   cfg.assign.strategy = AssignStrategy::Fdrt;
 *   Program prog = workloads::build("gzip");
 *   CtcpSimulator sim(cfg, prog);
 *   SimResult r = sim.run();
 * @endcode
 */

#ifndef CTCPSIM_CORE_SIMULATOR_HH
#define CTCPSIM_CORE_SIMULATOR_HH

#include <cstdio>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "assign/issue_time_steering.hh"
#include "bpred/predictor.hh"
#include "cluster/cluster.hh"
#include "cluster/inst_pool.hh"
#include "cluster/interconnect.hh"
#include "common/arena.hh"
#include "common/circular_queue.hh"
#include "config/sim_config.hh"
#include "core/fetch.hh"
#include "core/profiler.hh"
#include "core/sim_result.hh"
#include "core/store_window.hh"
#include "func/executor.hh"
#include "mem/dmem.hh"
#include "prog/program.hh"
#include "tracecache/fill_unit.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {

class AdaptivePolicy;
class AdaptiveSteeringController;
class CycleAccounting;
class FdrtAssignment;
class IntervalRecorder;
class ObsSink;

namespace verify {
class FaultInjector;
class InvariantChecker;
} // namespace verify

/** Cycle-level clustered trace cache processor simulator. */
class CtcpSimulator
{
  public:
    /**
     * @param cfg      validated machine configuration
     * @param program  workload (not owned; must outlive the simulator)
     * @param arena    backing storage for per-instruction state; pass a
     *                 worker-local arena to reuse its chunks across
     *                 back-to-back runs (campaigns). Must outlive the
     *                 simulator and must only be reset after it is
     *                 destroyed. Null = the simulator owns a private
     *                 arena.
     */
    CtcpSimulator(const SimConfig &cfg, const Program &program,
                  Arena *arena = nullptr);
    ~CtcpSimulator();

    CtcpSimulator(const CtcpSimulator &) = delete;
    CtcpSimulator &operator=(const CtcpSimulator &) = delete;

    /** Run to the instruction limit (or program end) and report. */
    SimResult run();

    /**
     * Every component's statistics as aligned "name  value" lines,
     * rendered from the simulator's state on each call (after run()
     * for the full run).
     */
    std::string statsText() const;

    /** Advance exactly one cycle (exposed for tests). */
    void step();

    /** Simulation has nothing left to do. */
    bool done();

    Cycle now() const { return cycle_; }
    std::uint64_t retired() const { return retired_; }

    const Profiler &profiler() const { return profiler_; }
    const TraceCache &traceCache() const { return *tc_; }
    const BranchPredictor &branchPredictor() const { return *bpred_; }

    /** The event sink, when cfg.obs enables tracing (else null). */
    const ObsSink *obs() const { return obs_.get(); }

  private:
    // The invariant checker revalidates private derived state against
    // first principles; the fault injector corrupts it in tests.
    friend class verify::InvariantChecker;
    friend class verify::FaultInjector;

    /** Build the ObsSink / IntervalRecorder from cfg_.obs and wire
     *  every instrumented component. Throws std::runtime_error on an
     *  unwritable output path (campaign jobs fail in isolation). */
    void setupObservability();
    void doCompletions();
    void doRetire();
    void doDispatch();
    void doIssue();
    void doRename();
    void doFetch();

    void renameOperand(TimedInst &inst, int index, RegId reg);
    /** Slot modes: the cluster queue @p inst issues from. */
    ClusterId slotCluster(const TimedInst &inst) const;

    /**
     * Effective readiness of both operands at the instruction's
     * cluster, with Figure 5 ablations applied, and the index of the
     * critical (last-arriving) operand (-1 when no register inputs).
     */
    struct Readiness
    {
        Cycle ready = 0;
        int critical = -1;
    };
    Readiness operandReadiness(const TimedInst &inst) const;

    bool readyToDispatch(const TimedInst &inst, Cycle now_cycle);
    Cycle executeInst(TimedInst &inst, Cycle now_cycle);
    void recordCriticality(TimedInst &inst);

    /**
     * Refresh inst.readyAt from operandReadiness (neverCycle while a
     * producer is outstanding) and, when cycle accounting is on, cache
     * the stall-explaining hop distance in inst.stallHops: the critical
     * operand's distance when schedulable, the worst incomplete
     * producer's distance when parking behind producers.
     */
    void cacheReadiness(TimedInst &inst);

    /** Classify this cycle's front-end output for cycle accounting. */
    CycleAccounting::FetchState fetchStarvation() const;

    /**
     * Re-route rename/issue after an adaptive mode switch, moving the
     * renamed, unissued instructions into the new mode's structure.
     */
    void applyAdaptiveMode();

    /**
     * Dispatch callbacks handed to Cluster::dispatch. A concrete type
     * (not std::function) so the per-instruction ready/execute calls
     * are direct, inlinable calls in the scheduling hot loop.
     */
    struct DispatchClient
    {
        CtcpSimulator &sim;

        bool
        ready(const TimedInst &inst, Cycle now_cycle) const
        {
            return sim.readyToDispatch(inst, now_cycle);
        }

        Cycle
        execute(TimedInst &inst, Cycle now_cycle) const
        {
            return sim.executeInst(inst, now_cycle);
        }
    };

    SimConfig cfg_;
    const Program &program_;

    /**
     * Per-instruction storage. ownedArena_ is the private fallback when
     * no external arena was supplied; pool_ carves TimedInst hot/cold
     * blocks out of whichever arena is in use. Declared before pool_
     * (and before everything that holds TimedInst pointers) so the
     * pool's destructor — which destroys every carved slot — runs
     * before the owned arena releases the chunks, never after.
     */
    std::unique_ptr<Arena> ownedArena_;
    TimedInstPool pool_;

    // Substrates.
    Executor exec_;
    DataMemorySystem dmem_;
    InstMemory imem_;
    std::unique_ptr<BranchPredictor> bpred_;
    std::unique_ptr<TraceCache> tc_;
    Interconnect interconnect_;
    std::vector<Cluster> clusters_;

    // Assignment policy (retire-time) and issue-time steering.
    std::unique_ptr<RetireAssignmentPolicy> policy_;
    FdrtAssignment *fdrt_ = nullptr;   ///< non-null when strategy is FDRT
    /** Non-null when the strategy is Adaptive (owned by policy_). */
    AdaptivePolicy *adaptivePolicy_ = nullptr;
    /** Phase-adaptive mode chooser (strategy Adaptive only). */
    std::unique_ptr<AdaptiveSteeringController> adaptive_;
    std::unique_ptr<FillUnit> fillUnit_;
    std::unique_ptr<IssueTimeSteering> steering_;
    /**
     * Rename routes new instructions into issueQueue_ (issue-time
     * steering picks their cluster) instead of the per-cluster queues.
     * Fixed true for strategy IssueTime; toggled per phase by the
     * adaptive chooser.
     */
    bool routeToIssueQueue_ = false;

    std::unique_ptr<FetchEngine> fetch_;
    Profiler profiler_;

    // Pipeline state.
    std::deque<FetchGroup> fetchQueue_;
    static constexpr std::size_t fetchQueueCap = 4;
    /** Position of the next instruction to rename in the front group. */
    std::size_t frontGroupPos_ = 0;

    /** Reorder buffer; entries are owned by pool_ (released at retire). */
    CircularQueue<TimedInst *> rob_;
    /** Issue-time steering mode: one in-order queue (steering redirects). */
    std::deque<TimedInst *> issueQueue_;
    /**
     * Slot-based modes: one FIFO per cluster, mirroring the per-cluster
     * issue-buffer slices of the CTCP (a backed-up cluster does not
     * block the others).
     */
    std::vector<std::deque<TimedInst *>> clusterQueues_;
    std::vector<TimedInst *> renameTable_;
    /** In-flight stores with disambiguation/forwarding indexes. */
    StoreWindow storeWindow_;
    /** Per-cycle dispatch output, reused across cycles and clusters. */
    std::vector<TimedInst *> dispatchScratch_;

    /**
     * Pending completion, keyed by cycle. The key is stored next to
     * the pointer so heap sifts compare inline data instead of
     * dereferencing cold TimedInst lines; comparisons resolve exactly
     * as the pointer-chasing form did (same key, same tie behavior),
     * so the pop order — and therefore every stat — is unchanged.
     */
    struct PendingComplete
    {
        Cycle completeAt;
        TimedInst *inst;
    };
    struct CompareComplete
    {
        bool
        operator()(const PendingComplete &a, const PendingComplete &b) const
        {
            return a.completeAt > b.completeAt;
        }
    };
    std::priority_queue<PendingComplete, std::vector<PendingComplete>,
                        CompareComplete> completions_;
    /** One cycle's due completions (sorted oldest first on the bus). */
    std::vector<PendingComplete> dueScratch_;
    /** Shared result-bus broadcast slots (bus interconnect mode only). */
    std::unique_ptr<PortSchedule> busSchedule_;

    Cycle cycle_ = 0;
    std::uint64_t retired_ = 0;
    unsigned issueExtraStages_ = 0;
    /** Host wall-clock seconds spent inside run() (0 until it ends). */
    double hostSeconds_ = 0.0;

    // Observability (src/obs): null unless cfg.obs requests output.
    std::unique_ptr<ObsSink> obs_;
    std::unique_ptr<IntervalRecorder> interval_;
    /** Cycle accounting: null unless cfg.obs.accounting. */
    std::unique_ptr<CycleAccounting> acct_;
    /**
     * Cached base of acct_'s forwarding matrix (null when accounting
     * is off): the execute loop counts a forward with one indexed
     * increment instead of reaching through the accounting object.
     */
    std::uint64_t *fwdMatrix_ = nullptr;
    /** Row stride of fwdMatrix_ (the cluster count). */
    unsigned fwdMatrixCols_ = 0;

    // Robustness (src/verify): null unless cfg.checkLevel > 0.
    std::unique_ptr<verify::InvariantChecker> checker_;
    /** Test-only fault: doRetire() retires nothing while set. */
    bool faultStallRetire_ = false;

    /**
     * Describe the stuck pipeline (ROB head, cluster occupancies, fetch
     * queue, store window) to stderr and — when tracing is on — as
     * Snapshot events through the obs sink, before a Hang abort.
     */
    void dumpPipelineSnapshot(const char *reason);

    // Counters.
    Counter condResolved_;
    Counter condMispredicted_;
    Counter indirectResolved_;
    Counter indirectMispredicted_;
    Counter robStalls_;
    Counter issueStalls_;
    Counter storeRetireStalls_;
    /** Forwarded (bypassed) operand deliveries observed at dispatch. */
    Counter fwdTotal_;
    /** Subset that crossed a cluster boundary. */
    Counter fwdInterCluster_;

    SimResult assemble() const;
};

} // namespace ctcp

#endif // CTCPSIM_CORE_SIMULATOR_HH
