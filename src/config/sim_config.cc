#include "config/sim_config.hh"

#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"

namespace ctcp {

const char *
assignStrategyName(AssignStrategy s)
{
    switch (s) {
      case AssignStrategy::BaseSlotOrder: return "base";
      case AssignStrategy::Friendly:      return "friendly";
      case AssignStrategy::Fdrt:          return "fdrt";
      case AssignStrategy::IssueTime:     return "issue-time";
      case AssignStrategy::Adaptive:      return "adaptive";
    }
    return "unknown";
}

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::LinearChain:  return "linear";
      case Topology::Ring:         return "ring";
      case Topology::Crossbar:     return "crossbar";
      case Topology::Hierarchical: return "hier";
      case Topology::Bus:          return "bus";
    }
    return "unknown";
}

bool
parseTopology(const std::string &name, Topology &out)
{
    if (name == "linear")
        out = Topology::LinearChain;
    else if (name == "ring" || name == "mesh")
        out = Topology::Ring;
    else if (name == "crossbar")
        out = Topology::Crossbar;
    else if (name == "hier")
        out = Topology::Hierarchical;
    else if (name == "bus")
        out = Topology::Bus;
    else
        return false;
    return true;
}

// Configuration errors throw (SimError, category Config) instead of
// exiting: a campaign job with a bad config must fail in isolation, and
// the CLI maps the category to exit code 2.
#define config_error(...) \
    throw SimError(ErrorCategory::Config, ::ctcp::detail::format(__VA_ARGS__))

void
SimConfig::validate() const
{
    if (cluster.numClusters == 0 || cluster.numClusters > maxClusters)
        config_error("numClusters must be in 1..%u (got %u)", maxClusters,
                     cluster.numClusters);
    if (cluster.clusterWidth == 0)
        config_error("clusterWidth must be positive");
    // In 64 bits: the unsigned product machineWidth() can wrap.
    const std::uint64_t width =
        std::uint64_t{cluster.numClusters} * cluster.clusterWidth;
    if (width > maxMachineWidth)
        config_error("numClusters*clusterWidth (%llu) exceeds the "
                     "%u-slot machine width limit",
                     static_cast<unsigned long long>(width),
                     maxMachineWidth);
    if (cluster.rsEntries == 0 || cluster.rsWritePorts == 0)
        config_error("reservation stations need entries and write ports");
    if (cluster.topology == Topology::Bus && cluster.busBandwidth == 0)
        config_error("bus interconnect needs bandwidth of at least one");
    if (cluster.topology == Topology::Hierarchical &&
        cluster.hierGroupSize == 0)
        config_error("hierarchical topology needs hierGroupSize >= 1");
    if (assign.strategy == AssignStrategy::Adaptive) {
        if (assign.adaptiveInterval == 0)
            config_error("adaptive strategy needs a positive interval");
        if (assign.adaptiveHysteresis == 0)
            config_error("adaptive hysteresis must be at least one");
        if (assign.adaptiveFwdHiPermille > 1000 ||
            assign.adaptiveFwdLoPermille > assign.adaptiveFwdHiPermille ||
            assign.adaptiveFwdMinPermille > assign.adaptiveFwdLoPermille)
            config_error("adaptive thresholds must satisfy "
                         "min <= lo <= hi <= 1000 per-mille");
    }
    if (frontEnd.fetchWidth != machineWidth())
        config_error("fetchWidth (%u) must equal numClusters*clusterWidth (%u)",
                     frontEnd.fetchWidth, machineWidth());
    if (frontEnd.traceCache.maxInsts != frontEnd.fetchWidth)
        config_error("trace line size (%u) must equal fetchWidth (%u)",
                     frontEnd.traceCache.maxInsts, frontEnd.fetchWidth);
    if (!isPowerOfTwo(frontEnd.traceCache.entries) ||
        frontEnd.traceCache.assoc == 0 ||
        frontEnd.traceCache.entries % frontEnd.traceCache.assoc != 0)
        config_error("trace cache geometry invalid");
    if (!isPowerOfTwo(mem.l1dSets) || !isPowerOfTwo(mem.l2Sets))
        config_error("cache set counts must be powers of two");
    if (!isPowerOfTwo(bpred.gshareEntries) ||
        !isPowerOfTwo(bpred.bimodalEntries) ||
        !isPowerOfTwo(bpred.chooserEntries))
        config_error("predictor table sizes must be powers of two");
    if (core.robEntries == 0 || core.retireWidth == 0)
        config_error("ROB and retire width must be positive");
    if (mem.storeBufferEntries == 0 || mem.loadQueueEntries == 0)
        config_error("store buffer and load queue must be non-empty");
    if (frontEnd.traceCache.maxBlocks == 0)
        config_error("trace lines must allow at least one basic block");
    if (deadlineSeconds < 0.0)
        config_error("deadlineSeconds must be non-negative");
}

namespace {

/**
 * Call @p f(name, value) on every field of @p cfg in declaration
 * order: the one field list behind configKey() and configHash().
 */
template <class F>
void
forEachField(const SimConfig &cfg, F &&f)
{
    const ClusterConfig &cl = cfg.cluster;
    f("cluster.numClusters", cl.numClusters);
    f("cluster.clusterWidth", cl.clusterWidth);
    f("cluster.rsEntries", cl.rsEntries);
    f("cluster.rsWritePorts", cl.rsWritePorts);
    f("cluster.hopLatency", cl.hopLatency);
    f("cluster.topology", cl.topology);
    f("cluster.hierGroupSize", cl.hierGroupSize);
    f("cluster.hierGroupLatency", cl.hierGroupLatency);
    f("cluster.busLatency", cl.busLatency);
    f("cluster.busBandwidth", cl.busBandwidth);

    const FrontEndConfig &fe = cfg.frontEnd;
    f("frontEnd.fetchWidth", fe.fetchWidth);
    f("frontEnd.fetchStages", fe.fetchStages);
    f("frontEnd.decodeStages", fe.decodeStages);
    f("frontEnd.renameStages", fe.renameStages);
    f("frontEnd.traceCache.entries", fe.traceCache.entries);
    f("frontEnd.traceCache.assoc", fe.traceCache.assoc);
    f("frontEnd.traceCache.maxInsts", fe.traceCache.maxInsts);
    f("frontEnd.traceCache.maxBlocks", fe.traceCache.maxBlocks);
    f("frontEnd.traceCache.fillLatency", fe.traceCache.fillLatency);
    f("frontEnd.icacheSets", fe.icacheSets);
    f("frontEnd.icacheAssoc", fe.icacheAssoc);
    f("frontEnd.icacheLineBytes", fe.icacheLineBytes);
    f("frontEnd.icacheHitLatency", fe.icacheHitLatency);
    f("frontEnd.icacheFetchWidth", fe.icacheFetchWidth);

    const BranchPredictorConfig &bp = cfg.bpred;
    f("bpred.gshareEntries", bp.gshareEntries);
    f("bpred.bimodalEntries", bp.bimodalEntries);
    f("bpred.chooserEntries", bp.chooserEntries);
    f("bpred.historyBits", bp.historyBits);
    f("bpred.btbEntries", bp.btbEntries);
    f("bpred.btbAssoc", bp.btbAssoc);
    f("bpred.rasEntries", bp.rasEntries);

    const MemConfig &m = cfg.mem;
    f("mem.l1dSets", m.l1dSets);
    f("mem.l1dAssoc", m.l1dAssoc);
    f("mem.l1dLineBytes", m.l1dLineBytes);
    f("mem.l1dHitLatency", m.l1dHitLatency);
    f("mem.l2Sets", m.l2Sets);
    f("mem.l2Assoc", m.l2Assoc);
    f("mem.l2LineBytes", m.l2LineBytes);
    f("mem.l2ExtraLatency", m.l2ExtraLatency);
    f("mem.dtlbEntries", m.dtlbEntries);
    f("mem.dtlbAssoc", m.dtlbAssoc);
    f("mem.dtlbHitLatency", m.dtlbHitLatency);
    f("mem.dtlbMissLatency", m.dtlbMissLatency);
    f("mem.pageBytes", m.pageBytes);
    f("mem.storeBufferEntries", m.storeBufferEntries);
    f("mem.loadQueueEntries", m.loadQueueEntries);
    f("mem.mshrs", m.mshrs);
    f("mem.cachePorts", m.cachePorts);
    f("mem.memLatency", m.memLatency);

    const CoreConfig &co = cfg.core;
    f("core.robEntries", co.robEntries);
    f("core.decodeWidth", co.decodeWidth);
    f("core.issueWidth", co.issueWidth);
    f("core.retireWidth", co.retireWidth);
    f("core.registerFileLatency", co.registerFileLatency);

    const AssignConfig &a = cfg.assign;
    f("assign.strategy", a.strategy);
    f("assign.issueTimeLatency", a.issueTimeLatency);
    f("assign.fdrtPinning", a.fdrtPinning);
    f("assign.fdrtChains", a.fdrtChains);
    f("assign.friendlyMiddleBias", a.friendlyMiddleBias);
    f("assign.adaptiveInterval", a.adaptiveInterval);
    f("assign.adaptiveHysteresis", a.adaptiveHysteresis);
    f("assign.adaptiveFwdHiPermille", a.adaptiveFwdHiPermille);
    f("assign.adaptiveFwdLoPermille", a.adaptiveFwdLoPermille);
    f("assign.adaptiveFwdMinPermille", a.adaptiveFwdMinPermille);
    f("assign.adaptiveRedirectHiPermille", a.adaptiveRedirectHiPermille);

    const AblationConfig &ab = cfg.ablation;
    f("ablation.zeroAllForwardLatency", ab.zeroAllForwardLatency);
    f("ablation.zeroCriticalForwardLatency", ab.zeroCriticalForwardLatency);
    f("ablation.zeroIntraTraceForwardLatency",
      ab.zeroIntraTraceForwardLatency);
    f("ablation.zeroInterTraceForwardLatency",
      ab.zeroInterTraceForwardLatency);
    f("ablation.zeroRegisterFileLatency", ab.zeroRegisterFileLatency);

    f("debug.disableDispatchPlans", cfg.debug.disableDispatchPlans);

    const ObsConfig &o = cfg.obs;
    f("obs.traceEventsPath", o.traceEventsPath);
    f("obs.traceTextPath", o.traceTextPath);
    f("obs.traceFilter", o.traceFilter);
    f("obs.intervalPath", o.intervalPath);
    f("obs.intervalCycles", o.intervalCycles);
    f("obs.accounting", o.accounting);

    f("instructionLimit", cfg.instructionLimit);
    f("checkLevel", cfg.checkLevel);
    f("watchdogCycles", cfg.watchdogCycles);
    f("deadlineSeconds", cfg.deadlineSeconds);
}

/** -0 compares equal to 0, so it keys and hashes as 0. */
double
positiveZero(double v)
{
    return v == 0.0 ? 0.0 : v;
}

} // namespace

std::uint64_t
configHash(const SimConfig &cfg)
{
    // FNV-1a over the field values (not their text, which costs more
    // to render than a campaign spends grouping its jobs).
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8)
            h = (h ^ (v & 0xff)) * 0x100000001b3ull;
    };
    forEachField(cfg, [&](const char *, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
            mix(value.size());
            for (const unsigned char c : value)
                mix(c);
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits;
            const double v = positiveZero(value);
            std::memcpy(&bits, &v, sizeof(bits));
            mix(bits);
        } else {
            mix(static_cast<std::uint64_t>(value));
        }
    });
    return h;
}

std::string
configKey(const SimConfig &cfg)
{
    std::string key;
    forEachField(cfg, [&key](const char *name, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        key += name;
        key += '=';
        if constexpr (std::is_same_v<T, bool>) {
            key += value ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", positiveZero(value));
            key += buf;
        } else if constexpr (std::is_same_v<T, std::string>) {
            // Quoted and escaped, so the key stays injective.
            key += '"';
            for (const char c : value) {
                if (c == '"' || c == '\\')
                    key += '\\';
                key += c;
            }
            key += '"';
        } else if constexpr (std::is_same_v<T, Topology>) {
            key += topologyName(value);
        } else if constexpr (std::is_same_v<T, AssignStrategy>) {
            key += assignStrategyName(value);
        } else {
            key += std::to_string(value);
        }
        key += ';';
    });
    char hash[24];
    std::snprintf(hash, sizeof(hash), "#%016llx",
                  static_cast<unsigned long long>(configHash(cfg)));
    return key + hash;
}

} // namespace ctcp
