#include "campaign/matrix.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parse_number.hh"
#include "config/presets.hh"
#include "workload/workload.hh"

namespace ctcp::campaign {

namespace {

[[noreturn]] void
bad(const std::string &msg)
{
    throw std::invalid_argument("campaign matrix: " + msg);
}

/** ctcp::parseUnsigned, its message prefixed like every matrix error. */
std::uint64_t
parseNumber(const std::string &text, const std::string &field,
            std::uint64_t min, std::uint64_t max)
{
    try {
        return parseUnsigned(text, field, min, max);
    } catch (const std::invalid_argument &e) {
        bad(e.what());
    }
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::vector<std::string>
expandBenches(const std::vector<std::string> &values)
{
    std::vector<std::string> out;
    auto append = [&](const std::vector<std::string> &names) {
        out.insert(out.end(), names.begin(), names.end());
    };
    for (const std::string &v : values) {
        if (v == "six") {
            append(workloads::selectedSix());
        } else if (v == "specint") {
            append(workloads::names(workloads::Suite::SpecInt));
        } else if (v == "media") {
            append(workloads::names(workloads::Suite::Media));
        } else if (v == "all") {
            append(workloads::names(workloads::Suite::SpecInt));
            append(workloads::names(workloads::Suite::Media));
        } else if (workloads::exists(v)) {
            out.push_back(v);
        } else {
            bad("unknown benchmark or group '" + v + "'");
        }
    }
    return out;
}

struct StrategySpec
{
    std::string label;
    AssignStrategy strategy;
    bool latencySet = false;
    unsigned latency = 0;
};

StrategySpec
parseStrategy(const std::string &value)
{
    StrategySpec spec;
    spec.label = value;
    std::string name = value;
    const std::size_t colon = value.find(':');
    if (colon != std::string::npos) {
        name = value.substr(0, colon);
        spec.latencySet = true;
        spec.latency = static_cast<unsigned>(
            parseNumber(value.substr(colon + 1), "issue-time latency", 0,
                        std::numeric_limits<unsigned>::max()));
    }
    if (!parseAssignStrategy(name, spec.strategy))
        bad("unknown strategy '" + name + "'");
    return spec;
}

/**
 * A topology=... value, or the pass-through entry used when the clause
 * is absent (keeps labels and configs untouched so existing specs
 * expand to byte-identical campaigns).
 */
struct TopologySpec
{
    std::string label;
    bool set = false;
    Topology topology = Topology::LinearChain;
};

TopologySpec
parseTopologyValue(const std::string &value)
{
    TopologySpec spec;
    spec.label = value;
    spec.set = true;
    if (!parseTopology(value, spec.topology))
        bad("unknown topology '" + value +
            "' (expected linear, ring, crossbar, hier or bus)");
    return spec;
}

/** A clusters=... value (0 = clause absent, leave the preset alone). */
unsigned
parseClusterCount(const std::string &value)
{
    return static_cast<unsigned>(parseNumber(value, "cluster count", 1, 8));
}

struct PresetSpec
{
    std::string label;
    PresetFactory make;
};

PresetSpec
parsePreset(const std::string &value)
{
    const PresetFactory make = presetFactory(value);
    if (!make)
        bad("unknown preset '" + value + "'");
    return {value, make};
}

std::uint64_t
parseBudget(const std::string &value)
{
    return parseNumber(value, "instruction budget", 1,
                       std::numeric_limits<std::uint64_t>::max());
}

/**
 * One slot index, checked against @p jobCount before anything is
 * expanded: a range bound is only ever a valid index, so expanding a
 * range costs at most one entry per job.
 */
std::size_t
parseSlotIndex(const std::string &value, std::size_t jobCount)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        bad("bad slot index '" + value + "'");
    std::size_t slot = 0;
    for (const char c : value) {
        slot = slot * 10 + static_cast<std::size_t>(c - '0');
        if (slot >= jobCount)
            bad("slot " + value + " out of range (campaign expands to " +
                std::to_string(jobCount) + " jobs)");
    }
    return slot;
}

/** Expand "0,2,5-7" into a sorted, deduplicated index list. */
std::vector<std::size_t>
expandSlotValues(const std::vector<std::string> &values,
                 std::size_t jobCount)
{
    std::vector<std::size_t> out;
    for (const std::string &v : values) {
        const std::size_t dash = v.find('-');
        if (dash == std::string::npos) {
            out.push_back(parseSlotIndex(v, jobCount));
            continue;
        }
        const std::size_t lo = parseSlotIndex(v.substr(0, dash), jobCount);
        const std::size_t hi =
            parseSlotIndex(v.substr(dash + 1), jobCount);
        if (hi < lo)
            bad("bad slot range '" + v + "'");
        for (std::size_t i = lo; i <= hi; ++i)
            out.push_back(i);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace

std::vector<Job>
parseMatrix(const std::string &spec)
{
    std::vector<std::size_t> ignored;
    return parseMatrix(spec, ignored);
}

std::vector<Job>
parseMatrix(const std::string &spec,
            std::vector<std::size_t> &slotIndices)
{
    std::vector<std::string> bench_values = {"six"};
    std::vector<std::string> strategy_values = {"base"};
    std::vector<std::string> preset_values = {"base"};
    std::vector<std::string> budget_values = {"300000"};
    std::vector<std::string> topology_values;
    std::vector<std::string> cluster_values;
    std::vector<std::string> slot_values;

    for (const std::string &clause : split(spec, ';')) {
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            bad("expected key=v1,v2,... in '" + clause + "'");
        const std::string key = clause.substr(0, eq);
        const std::vector<std::string> values =
            split(clause.substr(eq + 1), ',');
        if (values.empty() || values.front().empty())
            bad("empty value list for '" + key + "'");
        if (key == "bench")
            bench_values = values;
        else if (key == "strategy")
            strategy_values = values;
        else if (key == "preset")
            preset_values = values;
        else if (key == "budget")
            budget_values = values;
        else if (key == "topology")
            topology_values = values;
        else if (key == "clusters")
            cluster_values = values;
        else if (key == "slots")
            slot_values = values;
        else
            bad("unknown key '" + key +
                "' (expected bench, strategy, preset, topology, "
                "clusters, budget or slots)");
    }

    const std::vector<std::string> benches = expandBenches(bench_values);
    std::vector<StrategySpec> strategies;
    for (const std::string &v : strategy_values)
        strategies.push_back(parseStrategy(v));
    std::vector<PresetSpec> presets;
    for (const std::string &v : preset_values)
        presets.push_back(parsePreset(v));
    std::vector<std::uint64_t> budgets;
    for (const std::string &v : budget_values)
        budgets.push_back(parseBudget(v));
    // Absent topology/clusters clauses contribute one pass-through
    // entry each, so pre-existing specs expand to identical jobs with
    // identical labels.
    std::vector<TopologySpec> topologies;
    if (topology_values.empty())
        topologies.push_back(TopologySpec{});
    else
        for (const std::string &v : topology_values)
            topologies.push_back(parseTopologyValue(v));
    std::vector<unsigned> cluster_counts;
    if (cluster_values.empty())
        cluster_counts.push_back(0);
    else
        for (const std::string &v : cluster_values)
            cluster_counts.push_back(parseClusterCount(v));

    std::vector<Job> jobs;
    jobs.reserve(benches.size() * presets.size() * strategies.size() *
                 topologies.size() * cluster_counts.size() *
                 budgets.size());
    for (const std::string &bench : benches) {
        for (const PresetSpec &preset : presets) {
            for (const StrategySpec &strategy : strategies) {
                for (const TopologySpec &topo : topologies) {
                    for (const unsigned clusters : cluster_counts) {
                        for (const std::uint64_t budget : budgets) {
                            SimConfig cfg = preset.make();
                            cfg.assign.strategy = strategy.strategy;
                            if (strategy.latencySet)
                                cfg.assign.issueTimeLatency =
                                    strategy.latency;
                            if (topo.set)
                                cfg.cluster.topology = topo.topology;
                            if (clusters != 0)
                                applyMachineScale(
                                    cfg, clusters,
                                    cfg.cluster.clusterWidth);
                            cfg.instructionLimit = budget;
                            std::string label = bench + "/" +
                                                preset.label + "/" +
                                                strategy.label;
                            if (topo.set)
                                label += "/" + topo.label;
                            if (clusters != 0)
                                label += "/c" +
                                         std::to_string(clusters);
                            if (budgets.size() > 1)
                                label += "@" + std::to_string(budget);
                            jobs.push_back(makeJob(std::move(label),
                                                   bench,
                                                   std::move(cfg)));
                        }
                    }
                }
            }
        }
    }

    slotIndices.clear();
    if (slot_values.empty()) {
        slotIndices.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            slotIndices.push_back(i);
        return jobs;
    }
    slotIndices = expandSlotValues(slot_values, jobs.size());
    std::vector<Job> selected;
    selected.reserve(slotIndices.size());
    for (const std::size_t slot : slotIndices)
        selected.push_back(jobs[slot]);
    return selected;
}

const char *
matrixSyntaxHelp()
{
    return
        "MATRIX is a semicolon-separated list of key=v1,v2,... clauses;\n"
        "the campaign is the cross product of all dimensions:\n"
        "  bench=...     names and/or groups six|specint|media|all\n"
        "                (default six)\n"
        "  strategy=...  base|friendly|fdrt|issue-time[:LAT]|adaptive\n"
        "                (default base)\n"
        "  preset=...    base|mesh|onecycle|twocluster|bus|eightcluster\n"
        "                |ring|crossbar|hier (default base)\n"
        "  topology=...  linear|ring|crossbar|hier|bus, overriding the\n"
        "                preset's interconnect (absent = leave preset)\n"
        "  clusters=...  cluster counts 1..8; rescales the machine\n"
        "                width accordingly (absent = leave preset)\n"
        "  budget=...    instructions per run (default 300000)\n"
        "  slots=...     global job indices or a-b ranges into the\n"
        "                expanded cross product; yields only those\n"
        "                jobs, labels unchanged (sharding subsets;\n"
        "                merge their journals with ctcp_merge)\n"
        "example: --campaign \"bench=gzip,twolf;strategy=base,fdrt\"";
}

} // namespace ctcp::campaign
