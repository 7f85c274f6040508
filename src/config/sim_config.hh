/**
 * @file
 * Complete machine configuration for the CTCP model.
 *
 * Defaults reproduce Table 7 of the paper (the baseline 16-wide,
 * four-cluster configuration). Presets for the Figure 8 architecture
 * variants live in config/presets.hh.
 */

#ifndef CTCPSIM_CONFIG_SIM_CONFIG_HH
#define CTCPSIM_CONFIG_SIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace ctcp {

/** Dynamic cluster assignment strategies evaluated in the paper. */
enum class AssignStrategy : std::uint8_t
{
    /** Slot-position assignment as fetched (the paper's base machine). */
    BaseSlotOrder,
    /** Friendly et al. retire-time intra-trace reordering (MICRO-31). */
    Friendly,
    /** The paper's feedback-directed retire-time assignment. */
    Fdrt,
    /** Issue-time dependency steering (latency set separately). */
    IssueTime,
    /**
     * Phase-adaptive chooser: samples the cycle-accounting slot
     * taxonomy every interval and switches among the four strategies
     * above per program phase (src/assign/adaptive_steering).
     */
    Adaptive,
};

/** Human-readable strategy name. */
const char *assignStrategyName(AssignStrategy s);

/**
 * Inter-cluster forwarding-network topology. Every topology is
 * expressed as an NxN distance matrix (cluster hops) plus an NxN
 * latency matrix (cycles); the simulator, the accounting layer and the
 * steering policies consume only those matrices.
 */
enum class Topology : std::uint8_t
{
    /** Point-to-point chain; end clusters do not talk directly. */
    LinearChain,
    /** Chain with the ends joined (the paper's Figure 8 "mesh"). */
    Ring,
    /** Full point-to-point crossbar: every remote cluster is one hop. */
    Crossbar,
    /**
     * Two-level hierarchy: clusters form groups of hierGroupSize; one
     * hop inside a group, two hops (plus hierGroupLatency extra
     * cycles) across groups.
     */
    Hierarchical,
    /** Shared broadcast bus: uniform latency, limited bandwidth. */
    Bus,
};

/** Stable topology name used by the CLI and campaign-matrix specs. */
const char *topologyName(Topology t);

/** Parse a topology name; returns false on an unknown name. */
bool parseTopology(const std::string &name, Topology &out);

/** Most execution clusters a machine may have. */
inline constexpr unsigned maxClusters = 8;
/**
 * Most issue slots per cycle (numClusters * clusterWidth). A trace line
 * holds one instruction per issue slot, and retire-time placement keeps
 * a trace's instructions in 64-bit masks.
 */
inline constexpr unsigned maxMachineWidth = 64;

/** Execution-cluster geometry and interconnect. */
struct ClusterConfig
{
    unsigned numClusters = 4;
    /** Issue slots (and FU pipes) per cluster per cycle. */
    unsigned clusterWidth = 4;
    /** Entries per reservation station (five stations per cluster). */
    unsigned rsEntries = 8;
    /** New instructions a reservation station accepts per cycle. */
    unsigned rsWritePorts = 2;
    /** Inter-cluster forwarding latency per cluster hop, in cycles. */
    unsigned hopLatency = 2;
    /** Forwarding-network topology (Table 7 baseline: linear chain). */
    Topology topology = Topology::LinearChain;
    /** Hierarchical: clusters per first-level group. */
    unsigned hierGroupSize = 2;
    /** Hierarchical: extra cycles on top of two hops across groups. */
    unsigned hierGroupLatency = 0;
    /** Bus transfer latency (producer to any other cluster). */
    unsigned busLatency = 3;
    /** Broadcasts the bus can start per cycle. */
    unsigned busBandwidth = 1;

    bool operator==(const ClusterConfig &) const = default;
};

/** Trace cache geometry (2-way, 1K-entry, 3-cycle access in the paper). */
struct TraceCacheConfig
{
    unsigned entries = 1024;
    unsigned assoc = 2;
    /** Maximum instructions per trace line. */
    unsigned maxInsts = 16;
    /** Maximum basic blocks (embedded conditional branches + 1). */
    unsigned maxBlocks = 3;
    /**
     * Fill-unit latency: cycles between trace construction at
     * retirement and the line becoming fetchable. The paper reports
     * that even 1000 cycles barely matters (Section 4); default 0.
     */
    unsigned fillLatency = 0;

    bool operator==(const TraceCacheConfig &) const = default;
};

/** Front-end (fetch/decode/rename) configuration. */
struct FrontEndConfig
{
    unsigned fetchWidth = 16;
    /** Pipeline stages for fetch (trace cache access time). */
    unsigned fetchStages = 3;
    unsigned decodeStages = 1;
    unsigned renameStages = 1;
    TraceCacheConfig traceCache;
    /** L1 I-cache: 4-way, 4 KB, 2-cycle (modelled as hit/miss tags). */
    unsigned icacheSets = 32;
    unsigned icacheAssoc = 4;
    unsigned icacheLineBytes = 32;
    unsigned icacheHitLatency = 2;
    /** Instructions fetchable from the I-cache per cycle (one block). */
    unsigned icacheFetchWidth = 4;

    bool operator==(const FrontEndConfig &) const = default;
};

/** Branch predictor configuration (16k gshare/bimodal hybrid, 512x4 BTB). */
struct BranchPredictorConfig
{
    unsigned gshareEntries = 16384;
    unsigned bimodalEntries = 16384;
    unsigned chooserEntries = 16384;
    unsigned historyBits = 14;
    unsigned btbEntries = 512;
    unsigned btbAssoc = 4;
    unsigned rasEntries = 32;

    bool operator==(const BranchPredictorConfig &) const = default;
};

/** Data-memory subsystem (Table 7 values). */
struct MemConfig
{
    unsigned l1dSets = 256;         ///< 4-way, 32 KB, 32 B lines
    unsigned l1dAssoc = 4;
    unsigned l1dLineBytes = 32;
    unsigned l1dHitLatency = 2;
    unsigned l2Sets = 8192;         ///< 4-way, 1 MB
    unsigned l2Assoc = 4;
    unsigned l2LineBytes = 32;
    unsigned l2ExtraLatency = 8;    ///< added to an L1 miss
    unsigned dtlbEntries = 128;
    unsigned dtlbAssoc = 4;
    unsigned dtlbHitLatency = 1;
    unsigned dtlbMissLatency = 30;
    unsigned pageBytes = 4096;
    unsigned storeBufferEntries = 32;
    unsigned loadQueueEntries = 32;
    unsigned mshrs = 16;
    unsigned cachePorts = 4;
    unsigned memLatency = 65;       ///< main memory, added to an L2 miss

    bool operator==(const MemConfig &) const = default;
};

/** Out-of-order core resources. */
struct CoreConfig
{
    unsigned robEntries = 128;
    unsigned decodeWidth = 16;
    unsigned issueWidth = 16;
    unsigned retireWidth = 16;
    unsigned registerFileLatency = 2;

    bool operator==(const CoreConfig &) const = default;
};

/** Cluster-assignment policy selection and knobs. */
struct AssignConfig
{
    AssignStrategy strategy = AssignStrategy::BaseSlotOrder;
    /** Extra front-end stages for issue-time steering (0 = idealized). */
    unsigned issueTimeLatency = 4;
    /** FDRT: pin chain members permanently to their first cluster. */
    bool fdrtPinning = true;
    /**
     * FDRT: use inter-trace chains. Disabling isolates the intra-trace
     * heuristics (the Section 5.3 ablation).
     */
    bool fdrtChains = true;
    /**
     * Friendly-variant knob: bias unconstrained instructions toward the
     * middle clusters (the "minor adjustment" of Section 5.3).
     */
    bool friendlyMiddleBias = false;

    // ---- Adaptive strategy knobs (AssignStrategy::Adaptive) ---------
    /**
     * Cycles per evaluation interval: the chooser samples the
     * cycle-accounting slot taxonomy at every multiple of this.
     */
    std::uint64_t adaptiveInterval = 5000;
    /**
     * Consecutive intervals a challenger mode must win before the
     * chooser actually switches (hysteresis against phase jitter).
     */
    unsigned adaptiveHysteresis = 2;
    /**
     * Decision thresholds, in per-mille of the interval's attributed
     * slot-cycles. Integer so every comparison is exact 64-bit
     * arithmetic — the determinism contract (DESIGN decision 9).
     * wait_fwd share >= Hi: forwarding-bound, steer at issue time
     * (clean phases) or with FDRT (redirect-heavy phases);
     * in [Lo, Hi): FDRT; in [Min, Lo): Friendly; below Min: base.
     */
    unsigned adaptiveFwdHiPermille = 220;
    unsigned adaptiveFwdLoPermille = 60;
    unsigned adaptiveFwdMinPermille = 15;
    /** Redirect share above which issue-time's extra stages hurt. */
    unsigned adaptiveRedirectHiPermille = 80;

    bool operator==(const AssignConfig &) const = default;
};

/**
 * Latency-ablation switches implementing the "No X Lat" experiments of
 * Figure 5. All default off (realistic latencies).
 */
struct AblationConfig
{
    bool zeroAllForwardLatency = false;
    bool zeroCriticalForwardLatency = false;
    bool zeroIntraTraceForwardLatency = false;
    bool zeroInterTraceForwardLatency = false;
    bool zeroRegisterFileLatency = false;

    bool operator==(const AblationConfig &) const = default;
};

/** Debug switches. */
struct DebugConfig
{
    /**
     * Ignore the memoized per-trace-line dispatch plans and re-derive
     * slot→cluster / FU→station routing per fetched instruction, as if
     * the plan cache did not exist. Timing-neutral by construction;
     * exists so tests can prove cached and uncached runs produce
     * byte-identical stats.
     */
    bool disableDispatchPlans = false;

    bool operator==(const DebugConfig &) const = default;
};

/**
 * Observability subsystem configuration (src/obs). All paths default
 * empty = off; a simulator with observability off carries a null
 * ObsSink pointer and pays one branch per instrumented site.
 */
struct ObsConfig
{
    /** Chrome trace_event JSON output path ("" = off). */
    std::string traceEventsPath;
    /** Compact per-event text output path ("" = off). */
    std::string traceTextPath;
    /** Event-kind filter spec for ObsSink::parseFilter ("" = all). */
    std::string traceFilter;
    /** Interval time-series output path ("" = off; .json for JSON). */
    std::string intervalPath;
    /** Interval sampling period in cycles (0 = off). */
    std::uint64_t intervalCycles = 0;
    /**
     * Cycle-accounting layer (obs/accounting): attribute every cluster
     * issue slot each cycle to the closed stall taxonomy and collect
     * the forwarding-hop matrix. Fills SimResult::accounting; never
     * changes timing or the default (golden) exports.
     */
    bool accounting = false;

    /** Is any event tracing requested? */
    bool
    tracingEnabled() const
    {
        return !traceEventsPath.empty() || !traceTextPath.empty();
    }

    /** Is interval recording requested? */
    bool
    intervalEnabled() const
    {
        return !intervalPath.empty() && intervalCycles > 0;
    }

    bool operator==(const ObsConfig &) const = default;
};

/** Top-level simulation configuration. */
struct SimConfig
{
    ClusterConfig cluster;
    FrontEndConfig frontEnd;
    BranchPredictorConfig bpred;
    MemConfig mem;
    CoreConfig core;
    AssignConfig assign;
    AblationConfig ablation;
    DebugConfig debug;
    ObsConfig obs;

    /** Stop after this many committed instructions (0 = run to Halt). */
    std::uint64_t instructionLimit = 2'000'000;

    /**
     * Invariant-checker level (src/verify): 0 = off (no per-cycle cost
     * beyond one null-pointer test), >= 1 = revalidate the scheduler's
     * derived state against first principles every cycle and throw
     * SimError(Invariant) on the first divergence.
     */
    unsigned checkLevel = 0;

    /**
     * Forward-progress watchdog: if no instruction retires for this
     * many cycles, the run dumps a pipeline snapshot and throws
     * SimError(Hang). 0 disables the watchdog entirely.
     */
    std::uint64_t watchdogCycles = 1'000'000;

    /**
     * Cooperative wall-clock deadline for one run, checked at cycle
     * boundaries; exceeding it throws SimError(Timeout). 0 = none.
     */
    double deadlineSeconds = 0.0;

    /**
     * Consistency-check the configuration.
     * @throws SimError (category Config) on invalid setups
     */
    void validate() const;

    /** Total issue slots per cycle (numClusters * clusterWidth). */
    unsigned machineWidth() const
    {
        return cluster.numClusters * cluster.clusterWidth;
    }

    /**
     * Field-wise equality, as on every struct above. A field added
     * later joins the comparison by itself, so a campaign that shares
     * one run among equal configs can never ignore it.
     */
    bool operator==(const SimConfig &) const = default;
};

/**
 * The canonical text of @p cfg: every field as `name=value` in
 * declaration order, ';'-separated, then '#' and configHash(@p cfg)
 * in 16 hex digits. Strings are quoted with '"' and '\' escaped and
 * -0 prints as 0, so two configs have equal keys exactly when they
 * compare equal (a NaN deadline equals nothing). It names the machine
 * a run simulated.
 */
std::string configKey(const SimConfig &cfg);

/**
 * 64-bit FNV-1a hash of every field value of @p cfg: equal configs
 * hash equal.
 */
std::uint64_t configHash(const SimConfig &cfg);

} // namespace ctcp

#endif // CTCPSIM_CONFIG_SIM_CONFIG_HH
