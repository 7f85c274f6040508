#include "core/sim_result.hh"

#include <cstdio>

#include "common/json.hh"

namespace ctcp {

namespace {

void
field(std::string &out, const char *key, double value, bool last = false)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  \"%s\": %.6f%s\n", key, value,
                  last ? "" : ",");
    out += buf;
}

void
field(std::string &out, const char *key, std::uint64_t value)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  \"%s\": %llu,\n", key,
                  static_cast<unsigned long long>(value));
    out += buf;
}

} // namespace

namespace {

bool
isHostMetric(const std::string &name)
{
    return name.rfind("host.", 0) == 0;
}

} // namespace

std::string
SimResult::toJson(bool include_host_timing, bool include_accounting) const
{
    std::size_t included = 0;
    for (const auto &[name, value] : metrics) {
        (void)value;
        if (include_host_timing || !isHostMetric(name))
            ++included;
    }
    const bool emit_acct = include_accounting && !accounting.empty();

    std::string out = "{\n";
    out += "  \"benchmark\": \"" + json::escape(benchmark) + "\",\n";
    out += "  \"strategy\": \"" + json::escape(strategy) + "\",\n";
    field(out, "cycles", cycles);
    field(out, "instructions", instructions);
    field(out, "ipc", ipc());
    field(out, "pct_from_trace_cache", pctFromTraceCache);
    field(out, "mean_trace_size", meanTraceSize);
    field(out, "pct_crit_from_rf", pctCritFromRF);
    field(out, "pct_crit_from_rs1", pctCritFromRs1);
    field(out, "pct_crit_from_rs2", pctCritFromRs2);
    field(out, "pct_deps_critical", pctDepsCritical);
    field(out, "pct_crit_inter_trace", pctCritInterTrace);
    field(out, "pct_intra_cluster_fwd", pctIntraClusterFwd);
    field(out, "mean_fwd_distance", meanFwdDistance);
    field(out, "migration_all_pct", migrationAllPct);
    field(out, "migration_chain_pct", migrationChainPct);
    field(out, "bpred_accuracy", bpredAccuracy);
    field(out, "tc_hit_rate", tcHitRate);
    field(out, "mispredicts", mispredicts);
    field(out, "fdrt_option_a_pct", pctOptionA);
    field(out, "fdrt_option_b_pct", pctOptionB);
    field(out, "fdrt_option_c_pct", pctOptionC);
    field(out, "fdrt_option_d_pct", pctOptionD);
    field(out, "fdrt_option_e_pct", pctOptionE);
    field(out, "fdrt_skipped_pct", pctSkipped, included == 0 && !emit_acct);
    if (included > 0) {
        out += "  \"metrics\": {\n";
        std::size_t i = 0;
        for (const auto &[name, value] : metrics) {
            if (!include_host_timing && isHostMetric(name))
                continue;
            char buf[160];
            std::snprintf(buf, sizeof(buf), "    \"%s\": %.6f%s\n",
                          name.c_str(), value,
                          ++i < included ? "," : "");
            out += buf;
        }
        out += emit_acct ? "  },\n" : "  }\n";
    }
    if (emit_acct) {
        out += "  \"accounting\": {\n";
        std::size_t i = 0;
        for (const auto &[name, value] : accounting) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "    \"%s\": %.6f%s\n",
                          name.c_str(), value,
                          ++i < accounting.size() ? "," : "");
            out += buf;
        }
        out += "  }\n";
    }
    out += "}\n";
    return out;
}

} // namespace ctcp
