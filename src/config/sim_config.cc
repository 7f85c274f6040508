#include "config/sim_config.hh"

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

} // namespace ctcp
