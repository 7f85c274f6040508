#include "config/presets.hh"

namespace ctcp {

SimConfig
baseConfig()
{
    SimConfig cfg;   // defaults are Table 7
    cfg.validate();
    return cfg;
}

SimConfig
oneCycleForwardConfig()
{
    SimConfig cfg = baseConfig();
    cfg.cluster.hopLatency = 1;
    cfg.validate();
    return cfg;
}

SimConfig
busConfig()
{
    SimConfig cfg = baseConfig();
    cfg.cluster.topology = Topology::Bus;
    cfg.validate();
    return cfg;
}

SimConfig
eightClusterConfig()
{
    SimConfig cfg = baseConfig();
    applyMachineScale(cfg, 8, 4);
    cfg.validate();
    return cfg;
}

SimConfig
twoClusterConfig()
{
    SimConfig cfg = baseConfig();
    applyMachineScale(cfg, 2, 4);
    cfg.assign.issueTimeLatency = 2;
    cfg.validate();
    return cfg;
}

SimConfig
ringConfig()
{
    SimConfig cfg = baseConfig();
    cfg.cluster.topology = Topology::Ring;
    cfg.validate();
    return cfg;
}

SimConfig
crossbarConfig()
{
    SimConfig cfg = baseConfig();
    cfg.cluster.topology = Topology::Crossbar;
    cfg.validate();
    return cfg;
}

SimConfig
hierConfig()
{
    SimConfig cfg = baseConfig();
    cfg.cluster.topology = Topology::Hierarchical;
    cfg.cluster.hierGroupSize = 2;
    cfg.validate();
    return cfg;
}

PresetFactory
presetFactory(const std::string &name)
{
    static const struct
    {
        const char *name;
        PresetFactory make;
    } table[] = {
        {"base", baseConfig},
        {"mesh", ringConfig},
        {"onecycle", oneCycleForwardConfig},
        {"twocluster", twoClusterConfig},
        {"bus", busConfig},
        {"eightcluster", eightClusterConfig},
        {"ring", ringConfig},
        {"crossbar", crossbarConfig},
        {"hier", hierConfig},
    };
    for (const auto &entry : table)
        if (name == entry.name)
            return entry.make;
    return nullptr;
}

void
applyMachineScale(SimConfig &cfg, unsigned num_clusters,
                  unsigned cluster_width)
{
    cfg.cluster.numClusters = num_clusters;
    cfg.cluster.clusterWidth = cluster_width;
    const unsigned width = num_clusters * cluster_width;
    cfg.frontEnd.fetchWidth = width;
    cfg.frontEnd.traceCache.maxInsts = width;
    cfg.frontEnd.traceCache.maxBlocks = width >= 32 ? 4 : 3;
    cfg.core.decodeWidth = width;
    cfg.core.issueWidth = width;
    cfg.core.retireWidth = width;
    cfg.core.robEntries = 8 * width;
}

} // namespace ctcp
