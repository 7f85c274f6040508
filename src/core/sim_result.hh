/**
 * @file
 * Aggregated results of one simulation run: everything the paper's
 * tables and figures need, plus named metrics. The full stats text is
 * CtcpSimulator::statsText().
 */

#ifndef CTCPSIM_CORE_SIM_RESULT_HH
#define CTCPSIM_CORE_SIM_RESULT_HH

#include <cstdint>
#include <map>
#include <string>

namespace ctcp {

/** Per-run metrics. Percentages are in [0, 100]. */
struct SimResult
{
    std::string benchmark;
    std::string strategy;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    // ---- Table 1 -------------------------------------------------------
    double pctFromTraceCache = 0.0;
    double meanTraceSize = 0.0;

    // ---- Figure 4 -------------------------------------------------------
    double pctCritFromRF = 0.0;
    double pctCritFromRs1 = 0.0;
    double pctCritFromRs2 = 0.0;

    // ---- Table 2 ----------------------------------------------------------
    double pctDepsCritical = 0.0;
    double pctCritInterTrace = 0.0;

    // ---- Table 3 -----------------------------------------------------------
    double repeatRs1 = 0.0;
    double repeatRs2 = 0.0;
    double repeatRs1CritInter = 0.0;
    double repeatRs2CritInter = 0.0;

    // ---- Table 8 / Table 10 --------------------------------------------------
    double pctIntraClusterFwd = 0.0;
    double meanFwdDistance = 0.0;

    // ---- Figure 7 (FDRT runs only) ----------------------------------------
    double pctOptionA = 0.0;
    double pctOptionB = 0.0;
    double pctOptionC = 0.0;
    double pctOptionD = 0.0;
    double pctOptionE = 0.0;
    double pctSkipped = 0.0;

    // ---- Table 9 ---------------------------------------------------------------
    double migrationAllPct = 0.0;
    double migrationChainPct = 0.0;

    // ---- Misc ------------------------------------------------------------------
    double bpredAccuracy = 0.0;
    double tcHitRate = 0.0;
    std::uint64_t mispredicts = 0;

    // ---- Host-side throughput ---------------------------------------------
    /** Host wall-clock seconds the run took (0 when not measured). */
    double hostSeconds = 0.0;

    /** Simulated instructions retired per host second (0 if unknown). */
    double
    simInstsPerHostSecond() const
    {
        return hostSeconds > 0.0
            ? static_cast<double>(instructions) / hostSeconds : 0.0;
    }

    /**
     * Structured run telemetry: every named metric the run produced,
     * beyond the fixed headline fields above (event counts, forward
     * totals, occupancies...). Ordered, so JSON output is stable.
     * Keys prefixed "host." carry wall-clock measurements and are
     * non-deterministic across runs.
     */
    std::map<std::string, double> metrics;

    /**
     * Cycle-accounting export (empty unless ObsConfig::accounting):
     * per-cluster slot-cycle attribution (clusterC.slots.<cat>),
     * machine-wide slots.<cat>, the forwarding-hop matrix
     * (fwd_matrix.F.T) and raw migration counters. Kept apart from
     * `metrics` so the golden-stats serialization is byte-identical
     * whether accounting ran or not.
     */
    std::map<std::string, double> accounting;

    /**
     * Headline metrics as a flat JSON object (machine consumption).
     * "host."-prefixed metrics are omitted unless @p include_host_timing
     * is set: they differ run to run, and this serialization is the
     * byte-identical golden-stats / determinism contract. The
     * accounting map is likewise emitted (under "accounting") only
     * when @p include_accounting is set.
     */
    std::string toJson(bool include_host_timing = false,
                       bool include_accounting = false) const;
};

} // namespace ctcp

#endif // CTCPSIM_CORE_SIM_RESULT_HH
