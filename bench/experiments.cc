/**
 * @file
 * The paper's evaluation as one table of experiments and one runner.
 *
 * Each entry reproduces a table or figure of the paper (Tables 1-3 and
 * 8-10, Figures 4-9), an ablation or the topology sweep. It names its
 * benchmarks, the machines it simulates on each of them (named runs)
 * and how each printed column derives from those runs. The runner
 * queues the jobs of every selected entry, each at its own budget,
 * into one campaign, which runs each distinct simulation once, then
 * prints each entry's tables from its part of the report; aggregation
 * is deterministic, so the output is the same for any worker count.
 * The job and distinct-simulation counts go to stderr.
 *
 * Usage: experiments NAME|all|--list [budget] [jobs]
 *   NAME    one experiment (--list names them); all runs every one
 *   budget  instruction budget per run (default: the experiment's,
 *           300000, or 200000 for fig9)
 *   jobs    campaign worker threads (default 0 = one per hardware
 *           thread)
 *
 * Exit status: 0 ok, 1 a simulation failed, 2 usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/parse_number.hh"
#include "config/presets.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "workload/workload.hh"

namespace {

using namespace ctcp;

/** A machine an experiment simulates on each of its benchmarks. */
struct Run
{
    std::string name;
    SimConfig config;
};

/** How a column derives a benchmark's value from its runs. */
enum class Derive
{
    Field,      ///< a SimResult field of `run`
    Ipc,        ///< the IPC of `run`
    Speedup,    ///< cycles of `base` over cycles of `run`
    Reduction,  ///< % reduction from column `without` to column `with`
};

/** One printed column: a header, a value and a format. */
struct Column
{
    std::string header;
    Derive derive = Derive::Field;
    std::string run = {};
    double SimResult::*field = nullptr;
    std::string base = {};
    std::size_t with = 0;
    std::size_t without = 0;
    bool percent = false;
    int decimals = 2;
};

Column
percentOf(std::string header, std::string run, double SimResult::*field)
{
    return {.header = std::move(header), .run = std::move(run),
            .field = field, .percent = true};
}

Column
valueOf(std::string header, std::string run, double SimResult::*field,
        int decimals)
{
    return {.header = std::move(header), .run = std::move(run),
            .field = field, .decimals = decimals};
}

Column
ipcOf(std::string header, std::string run)
{
    return {.header = std::move(header), .derive = Derive::Ipc,
            .run = std::move(run), .decimals = 3};
}

Column
speedupOf(std::string header, std::string run, std::string base)
{
    return {.header = std::move(header), .derive = Derive::Speedup,
            .run = std::move(run), .base = std::move(base),
            .decimals = 3};
}

Column
reductionOf(std::string header, std::size_t with, std::size_t without)
{
    return {.header = std::move(header), .derive = Derive::Reduction,
            .with = with, .without = without, .percent = true};
}

/**
 * One benchmark per row, then a footer row: the harmonic mean of
 * speed-up columns, the arithmetic mean of the others.
 */
struct Table
{
    /** Printed on the line above the table, when set. */
    std::string caption = {};
    std::vector<Column> columns;
    /** Footer label of mean tables; speed-up tables print "HM". */
    std::string footer = "Average";
    /** Row benchmarks; empty means the experiment's. */
    std::vector<std::string> benchmarks = {};
    /** A blank line follows the table. */
    bool spaced = false;
};

/** One reproduced table, figure, ablation or sweep. */
struct Experiment
{
    std::string name;
    std::string title;
    /** The paper's values, printed under the title. */
    std::string paper;
    std::uint64_t budget = 300'000;
    std::vector<std::string> benchmarks = workloads::selectedSix();
    std::vector<Run> runs = {};
    std::vector<Table> tables = {};
    /** Prints, after the tables, a layout they cannot express. */
    std::function<void(const Experiment &, const campaign::Report &)>
        print = {};
};

/** A compared machine: its name and how it edits the base machine. */
struct Variant
{
    std::string name;
    std::function<void(SimConfig &)> edit;
};

SimConfig
steered(SimConfig cfg, AssignStrategy strategy)
{
    cfg.assign.strategy = strategy;
    return cfg;
}

Variant
strategyVariant(std::string name, AssignStrategy strategy)
{
    return {std::move(name),
            [strategy](SimConfig &c) { c.assign.strategy = strategy; }};
}

/** Figure 5: the base machine with one latency @p flag zeroed. */
Variant
zeroing(std::string name, bool AblationConfig::*flag)
{
    return {std::move(name),
            [flag](SimConfig &c) { c.ablation.*flag = true; }};
}

/** The strategies of Figures 6 and 9, over the base machine. */
std::vector<Variant>
figure6Variants()
{
    return {
        {"No-lat Issue",
         [](SimConfig &c) {
             c.assign.strategy = AssignStrategy::IssueTime;
             c.assign.issueTimeLatency = 0;
         }},
        strategyVariant("Issue-time", AssignStrategy::IssueTime),
        strategyVariant("FDRT", AssignStrategy::Fdrt),
        strategyVariant("Friendly", AssignStrategy::Friendly),
    };
}

/**
 * Queue @p base as run "<prefix>base" and each variant of it as
 * "<prefix><variant>" on @p e.
 */
void
addVariants(Experiment &e, const std::string &prefix,
            const SimConfig &base, const std::vector<Variant> &variants)
{
    e.runs.push_back({prefix + "base", base});
    for (const Variant &v : variants) {
        SimConfig cfg = base;
        v.edit(cfg);
        e.runs.push_back({prefix + v.name, cfg});
    }
}

/** Each variant's speed-up over "<prefix>base", one column each. */
std::vector<Column>
speedupColumns(const std::string &prefix,
               const std::vector<Variant> &variants)
{
    std::vector<Column> columns;
    for (const Variant &v : variants)
        columns.push_back(
            speedupOf(v.name, prefix + v.name, prefix + "base"));
    return columns;
}

/** A speed-up table over the base machine with the variants queued. */
Experiment
speedupExperiment(Experiment e, const std::vector<Variant> &variants)
{
    addVariants(e, "", baseConfig(), variants);
    e.tables = {{.columns = speedupColumns("", variants)}};
    return e;
}

const SimResult &
resultOf(const campaign::Report &report, const std::string &bench,
         const std::string &run)
{
    return report.at(bench + "/" + run).result;
}

double
speedup(const SimResult &base, const SimResult &r)
{
    return static_cast<double>(base.cycles) /
        static_cast<double>(r.cycles);
}

double
reduction(double with, double without)
{
    return without > 0.0 ? 100.0 * (without - with) / without : 0.0;
}

/** @p c's value on @p bench; @p values holds the row's earlier cells. */
double
cellValue(const Column &c, const std::vector<std::vector<double>> &values,
          const campaign::Report &report, const std::string &bench)
{
    switch (c.derive) {
      case Derive::Field:
        return resultOf(report, bench, c.run).*c.field;
      case Derive::Ipc:
        return resultOf(report, bench, c.run).ipc();
      case Derive::Speedup:
        return speedup(resultOf(report, bench, c.base),
                       resultOf(report, bench, c.run));
      case Derive::Reduction:
        return reduction(values[c.with].back(), values[c.without].back());
    }
    return 0.0;
}

/** @p c's footer over its per-benchmark @p values (all columns). */
double
footerValue(const Column &c, std::size_t index,
            const std::vector<std::vector<double>> &values)
{
    const auto sum = [](const std::vector<double> &column) {
        return std::accumulate(column.begin(), column.end(), 0.0);
    };
    switch (c.derive) {
      case Derive::Speedup:
        return harmonicMean(values[index]);
      case Derive::Reduction:
        // Of the column sums, not a mean of the per-row reductions.
        return reduction(sum(values[c.with]), sum(values[c.without]));
      default:
        return arithmeticMean(values[index]);
    }
}

void
addCell(TextTable &table, const Column &c, double value)
{
    if (c.percent)
        table.percentCell(value, c.decimals);
    else
        table.cell(value, c.decimals);
}

void
printTable(const Table &t, const std::vector<std::string> &benchmarks,
           const campaign::Report &report)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const Column &c : t.columns)
        headers.push_back(c.header);
    TextTable text(headers);

    std::vector<std::vector<double>> values(t.columns.size());
    for (const std::string &bench : benchmarks) {
        text.row(bench);
        for (std::size_t i = 0; i < t.columns.size(); ++i) {
            values[i].push_back(
                cellValue(t.columns[i], values, report, bench));
            addCell(text, t.columns[i], values[i].back());
        }
    }
    text.row(t.columns.front().derive == Derive::Speedup ? "HM"
                                                         : t.footer);
    for (std::size_t i = 0; i < t.columns.size(); ++i)
        addCell(text, t.columns[i], footerValue(t.columns[i], i, values));

    if (!t.caption.empty())
        std::printf("%s\n", t.caption.c_str());
    std::printf("%s%s", text.render().c_str(), t.spaced ? "\n" : "");
}

// ---- The experiment table ---------------------------------------------

std::vector<Experiment>
experiments()
{
    using A = AblationConfig;
    using R = SimResult;
    using S = AssignStrategy;
    std::vector<Experiment> list;

    list.push_back({
        .name = "table1",
        .title = "Table 1: Trace Cache Characteristics",
        .paper = "%TCInstr avg 88.3 (80.4..92.4); trace size avg 13.2",
        .runs = {{"base", baseConfig()}},
        .tables = {{
            .columns = {
                valueOf("% TC Instr", "base", &R::pctFromTraceCache, 2),
                valueOf("Trace Size", "base", &R::meanTraceSize, 2),
            },
            .footer = "Avg",
        }},
    });

    list.push_back({
        .name = "table2",
        .title = "Table 2: Critical Data Forwarding Dependencies",
        .paper = "% deps critical avg 83.4; % critical inter-trace avg "
                 "27.8",
        .runs = {{"base", baseConfig()}},
        .tables = {{
            .columns = {
                percentOf("% deps critical", "base", &R::pctDepsCritical),
                percentOf("% critical inter-trace", "base",
                          &R::pctCritInterTrace),
            },
            .footer = "Avg",
        }},
    });

    list.push_back({
        .name = "table3",
        .title = "Table 3: Frequency of Repeated Forwarding Producers",
        .paper = "all RS1 97.1 / RS2 94.5; crit inter-trace RS1 90.3 / "
                 "RS2 84.7",
        .runs = {{"base", baseConfig()}},
        .tables = {{
            .columns = {
                percentOf("RS1 (all)", "base", &R::repeatRs1),
                percentOf("RS2 (all)", "base", &R::repeatRs2),
                percentOf("RS1 (crit inter)", "base", &R::repeatRs1CritInter),
                percentOf("RS2 (crit inter)", "base", &R::repeatRs2CritInter),
            },
        }},
    });

    list.push_back({
        .name = "fig4",
        .title = "Figure 4: Source of Most Critical Input Dependency",
        .paper = "averages: from RF 44%, from RS1 31%, from RS2 25%",
        .runs = {{"base", baseConfig()}},
        .tables = {{
            .columns = {
                percentOf("from RF", "base", &R::pctCritFromRF),
                percentOf("from RS1", "base", &R::pctCritFromRs1),
                percentOf("from RS2", "base", &R::pctCritFromRs2),
            },
        }},
    });

    list.push_back(speedupExperiment(
        {.name = "fig5",
         .title = "Figure 5: Speedup From Removing Certain Latencies",
         .paper = "HM: NoFwd 1.418, NoCritFwd 1.372, NoIntra 1.177, "
                  "NoInter 1.155, NoRF ~1.0"},
        {
            zeroing("No Fwd Lat", &A::zeroAllForwardLatency),
            zeroing("No Crit Fwd Lat", &A::zeroCriticalForwardLatency),
            zeroing("No Intra-Trace Lat", &A::zeroIntraTraceForwardLatency),
            zeroing("No Inter-Trace Lat", &A::zeroInterTraceForwardLatency),
            zeroing("No RF Lat", &A::zeroRegisterFileLatency),
        }));

    list.push_back(speedupExperiment(
        {.name = "fig6",
         .title = "Figure 6: Speedup Due to Cluster Assignment Strategy",
         .paper = "HM: no-lat issue 1.172, FDRT 1.115, issue-4 ~1.11, "
                  "Friendly 1.031"},
        figure6Variants()));

    list.push_back({
        .name = "fig7",
        .title = "Figure 7: FDRT Critical Input Distribution "
                 "(options A-E)",
        .paper = "averages: A 37, B 18, C 9, D 11, E 24, skipped <1",
        .runs = {{"FDRT", steered(baseConfig(), S::Fdrt)}},
        .tables = {{
            .columns = {
                percentOf("A intra", "FDRT", &R::pctOptionA),
                percentOf("B chain", "FDRT", &R::pctOptionB),
                percentOf("C both", "FDRT", &R::pctOptionC),
                percentOf("D consumer", "FDRT", &R::pctOptionD),
                percentOf("E none", "FDRT", &R::pctOptionE),
                percentOf("skipped", "FDRT", &R::pctSkipped),
            },
        }},
    });

    list.push_back({
        .name = "table8",
        .title = "Table 8: Data Forwarding For Critical Inputs",
        .paper = "intra-cluster avg: base 39.7, friendly 56.9, fdrt "
                 "61.6; fdrt always shortens distance",
        .runs = {{"Base", baseConfig()},
                 {"Friendly", steered(baseConfig(), S::Friendly)},
                 {"FDRT", steered(baseConfig(), S::Fdrt)}},
        .tables = {
            {.caption = "a. Percentage of Intra-Cluster Forwarding",
             .columns = {
                 percentOf("Base", "Base", &R::pctIntraClusterFwd),
                 percentOf("Friendly", "Friendly", &R::pctIntraClusterFwd),
                 percentOf("FDRT", "FDRT", &R::pctIntraClusterFwd),
             },
             .spaced = true},
            {.caption = "b. Average Data Forwarding Distance",
             .columns = {
                 valueOf("Base", "Base", &R::meanFwdDistance, 3),
                 valueOf("Friendly", "Friendly", &R::meanFwdDistance, 3),
                 valueOf("FDRT", "FDRT", &R::meanFwdDistance, 3),
             }},
        },
    });

    SimConfig no_pin = steered(baseConfig(), S::Fdrt);
    no_pin.assign.fdrtPinning = false;
    const std::vector<Run> pinning = {
        {"pin", steered(baseConfig(), S::Fdrt)}, {"no pin", no_pin}};

    list.push_back({
        .name = "table9",
        .title = "Table 9: Instruction Cluster Migration",
        .paper = "all-instr avg: pinning 4.25% vs no-pinning 5.80%; "
                 "chain migration cut ~41% by pinning",
        .runs = pinning,
        .tables = {{
            .columns = {
                percentOf("all (pin)", "pin", &R::migrationAllPct),
                percentOf("all (no pin)", "no pin", &R::migrationAllPct),
                reductionOf("all reduction", 0, 1),
                percentOf("chain (pin)", "pin", &R::migrationChainPct),
                percentOf("chain (no pin)", "no pin", &R::migrationChainPct),
                reductionOf("chain reduction", 3, 4),
            },
        }},
    });

    list.push_back({
        .name = "table10",
        .title = "Table 10: Intra-Cluster Critical Forwarding vs Pinning",
        .paper = "averages: with pinning 60.51% vs no pinning 58.57%",
        .runs = pinning,
        .tables = {{
            .columns = {
                percentOf("With Pinning", "pin", &R::pctIntraClusterFwd),
                percentOf("No Pinning", "no pin", &R::pctIntraClusterFwd),
            },
        }},
    });

    // Figure 8: speed-ups relative to each machine's own base run.
    Experiment fig8{
        .name = "fig8",
        .title = "Figure 8: Speedups For Other Cluster Configurations",
        .paper = "smaller gains everywhere; FDRT keeps its edge over "
                 "issue-time in all variants",
    };
    const std::vector<Variant> fig8_strategies = {
        strategyVariant("FDRT", S::Fdrt),
        strategyVariant("Friendly", S::Friendly),
        // twoClusterConfig already sets issueTimeLatency = 2.
        strategyVariant("Issue-time", S::IssueTime),
    };
    const std::pair<const char *, PresetFactory> machines[] = {
        {"Mesh Network", ringConfig},
        {"One Cycle Forward Lat", oneCycleForwardConfig},
        {"Eight-wide, Two-cluster", twoClusterConfig},
    };
    for (const auto &[label, make] : machines) {
        const std::string prefix = std::string(label) + "/";
        addVariants(fig8, prefix, make(), fig8_strategies);
        fig8.tables.push_back(
            {.caption = "-- " + std::string(label) + " --",
             .columns = speedupColumns(prefix, fig8_strategies),
             .spaced = true});
    }
    list.push_back(std::move(fig8));

    // Figure 9: both full suites; one table per suite.
    Experiment fig9{
        .name = "fig9",
        .title = "Figure 9: Suite-wide Cluster Assignment Speedups",
        .paper = "HM SPECint: fdrt 1.071, issue 1.038, friendly 1.019; "
                 "MediaBench: fdrt 1.082, no-lat issue 1.042",
        .budget = 200'000,
        .benchmarks = {},
    };
    addVariants(fig9, "", baseConfig(), figure6Variants());
    for (const auto &[suite, caption] :
         {std::pair{workloads::Suite::SpecInt, "-- All SPECint2000 --"},
          std::pair{workloads::Suite::Media, "-- MediaBench --"}}) {
        const std::vector<std::string> names = workloads::names(suite);
        fig9.benchmarks.insert(fig9.benchmarks.end(), names.begin(),
                               names.end());
        fig9.tables.push_back(
            {.caption = caption,
             .columns = speedupColumns("", figure6Variants()),
             .benchmarks = names,
             .spaced = true});
    }
    list.push_back(std::move(fig9));

    // Design-space sweep: every topology x strategy, then 2 and 8
    // four-wide clusters on the linear chain (4 is "topology: linear").
    Experiment sweep{
        .name = "sweep_topology",
        .title = "Design Space: Topology x Assignment Strategy",
        .paper = "section 5 machine variants generalised to five "
                 "interconnects and 2/4/8-cluster machines",
    };
    const std::vector<Variant> sweep_strategies = {
        strategyVariant("Friendly", S::Friendly),
        strategyVariant("FDRT", S::Fdrt),
        strategyVariant("Issue-time", S::IssueTime),
        strategyVariant("Adaptive", S::Adaptive),
    };
    const Topology topologies[] = {Topology::LinearChain, Topology::Ring,
                                   Topology::Crossbar,
                                   Topology::Hierarchical, Topology::Bus};
    for (const Topology topo : topologies) {
        const std::string prefix = std::string(topologyName(topo)) + "/";
        SimConfig machine = baseConfig();
        machine.cluster.topology = topo;
        addVariants(sweep, prefix, machine, sweep_strategies);
        sweep.tables.push_back(
            {.caption = "-- topology: " + std::string(topologyName(topo)) +
                 " (4 clusters x 4-wide) --",
             .columns = speedupColumns(prefix, sweep_strategies),
             .spaced = true});
    }
    for (const unsigned n : {2u, 8u}) {
        const std::string prefix = "c" + std::to_string(n) + "/";
        SimConfig machine = baseConfig();
        applyMachineScale(machine, n, machine.cluster.clusterWidth);
        addVariants(sweep, prefix, machine, sweep_strategies);
        sweep.tables.push_back(
            {.caption = "-- linear chain, " + std::to_string(n) +
                 " clusters x 4-wide --",
             .columns = speedupColumns(prefix, sweep_strategies),
             .spaced = true});
    }
    // Adaptive safety net: on how many (topology, benchmark) points
    // does the phase-adaptive chooser beat the WORST static strategy?
    // It need not win outright, but it must never be the policy you
    // regret picking.
    sweep.print = [topologies](const Experiment &e,
                               const campaign::Report &report) {
        unsigned points = 0, adaptive_wins = 0, outright_wins = 0;
        for (const Topology topo : topologies) {
            const std::string prefix =
                std::string(topologyName(topo)) + "/";
            for (const std::string &bench : e.benchmarks) {
                std::uint64_t worst = 0, best = ~std::uint64_t{0};
                for (const char *run :
                     {"base", "Friendly", "FDRT", "Issue-time"}) {
                    const std::uint64_t c =
                        resultOf(report, bench, prefix + run).cycles;
                    worst = std::max(worst, c);
                    best = std::min(best, c);
                }
                const std::uint64_t adaptive =
                    resultOf(report, bench, prefix + "Adaptive").cycles;
                ++points;
                if (adaptive < worst)
                    ++adaptive_wins;
                if (adaptive <= best)
                    ++outright_wins;
            }
        }
        std::printf("adaptive beats the worst static strategy on %u/%u "
                    "(topology x benchmark) points and matches or beats "
                    "the best on %u/%u\n",
                    adaptive_wins, points, outright_wins, points);
    };
    list.push_back(std::move(sweep));

    list.push_back(speedupExperiment(
        {.name = "ablation_fdrt_components",
         .title = "Ablation: FDRT components (Section 5.3)",
         .paper = "friendly +3.1, friendly-mid +4.7, fdrt-intra-only "
                  "+5.7, full fdrt +11.5"},
        {
            strategyVariant("Friendly", S::Friendly),
            {"Friendly+mid",
             [](SimConfig &c) {
                 c.assign.strategy = S::Friendly;
                 c.assign.friendlyMiddleBias = true;
             }},
            {"FDRT intra-only",
             [](SimConfig &c) {
                 c.assign.strategy = S::Fdrt;
                 c.assign.fdrtChains = false;
             }},
            {"FDRT no-pin",
             [](SimConfig &c) {
                 c.assign.strategy = S::Fdrt;
                 c.assign.fdrtPinning = false;
             }},
            strategyVariant("FDRT full", S::Fdrt),
        }));

    list.push_back({
        .name = "ablation_interconnect",
        .title = "Ablation: interconnect topology (p2p vs mesh vs bus)",
        .paper = "point-to-point beats bus (Parcerisa et al.); mesh best",
        .runs = {{"linear", baseConfig()},
                 {"linear+fdrt", steered(baseConfig(), S::Fdrt)},
                 {"mesh", ringConfig()},
                 {"mesh+fdrt", steered(ringConfig(), S::Fdrt)},
                 {"bus", busConfig()},
                 {"bus+fdrt", steered(busConfig(), S::Fdrt)}},
        .tables = {{
            .columns = {ipcOf("linear IPC", "linear"),
                        ipcOf("mesh IPC", "mesh"),
                        ipcOf("bus IPC", "bus"),
                        ipcOf("linear+fdrt", "linear+fdrt"),
                        ipcOf("mesh+fdrt", "mesh+fdrt"),
                        ipcOf("bus+fdrt", "bus+fdrt")},
            .footer = "Mean",
        }},
    });

    // Trace-cache capacity: one row per size, averaged over the
    // benchmarks.
    const std::vector<unsigned> capacities = {64u,  128u,  256u,
                                              512u, 1024u, 2048u};
    Experiment trace_cache{
        .name = "ablation_trace_cache",
        .title = "Ablation: trace cache capacity sweep (FDRT)",
        .paper = "coverage and FDRT gain saturate once the trace working "
                 "set fits",
    };
    for (const unsigned entries : capacities) {
        SimConfig base = baseConfig();
        base.frontEnd.traceCache.entries = entries;
        trace_cache.runs.push_back(
            {std::to_string(entries) + "/base", base});
        trace_cache.runs.push_back(
            {std::to_string(entries) + "/fdrt", steered(base, S::Fdrt)});
    }
    trace_cache.print = [capacities](const Experiment &e,
                                     const campaign::Report &report) {
        TextTable table({"entries", "% from TC", "fetched trace size",
                         "base IPC", "FDRT IPC", "FDRT speedup"});
        const double n = static_cast<double>(e.benchmarks.size());
        for (const unsigned entries : capacities) {
            const std::string size = std::to_string(entries);
            double pct = 0, trace_size = 0, bipc = 0, fipc = 0, gain = 0;
            for (const std::string &bench : e.benchmarks) {
                const SimResult &rb = resultOf(report, bench, size + "/base");
                const SimResult &rf = resultOf(report, bench, size + "/fdrt");
                pct += rf.pctFromTraceCache;
                trace_size += rf.meanTraceSize;
                bipc += rb.ipc();
                fipc += rf.ipc();
                gain += speedup(rb, rf);
            }
            table.row(size)
                .percentCell(pct / n)
                .cell(trace_size / n, 2)
                .cell(bipc / n, 3)
                .cell(fipc / n, 3)
                .cell(gain / n, 3);
        }
        std::printf("%s", table.render().c_str());
    };
    list.push_back(std::move(trace_cache));

    // Fill-unit latency: one row per latency, relative to zero latency.
    const std::vector<unsigned> latencies = {0u, 10u, 100u, 1000u,
                                             10000u};
    Experiment fill{
        .name = "ablation_fill_latency",
        .title = "Ablation: fill-unit latency tolerance (FDRT)",
        .paper = "even 1000 cycles of fill latency barely matters "
                 "(Section 4)",
    };
    for (const unsigned latency : latencies) {
        SimConfig cfg = steered(baseConfig(), S::Fdrt);
        cfg.frontEnd.traceCache.fillLatency = latency;
        fill.runs.push_back({std::to_string(latency), cfg});
    }
    fill.print = [latencies](const Experiment &e,
                             const campaign::Report &report) {
        TextTable table({"fill latency", "mean FDRT IPC", "vs 0-latency",
                         "% from TC"});
        const double n = static_cast<double>(e.benchmarks.size());
        double ref_ipc = 0.0;
        for (const unsigned latency : latencies) {
            double ipc = 0, pct = 0;
            for (const std::string &bench : e.benchmarks) {
                const SimResult &r =
                    resultOf(report, bench, std::to_string(latency));
                ipc += r.ipc();
                pct += r.pctFromTraceCache;
            }
            ipc /= n;
            pct /= n;
            if (latency == 0)
                ref_ipc = ipc;
            table.row(std::to_string(latency))
                .cell(ipc, 3)
                .cell(ipc / ref_ipc, 4)
                .percentCell(pct);
        }
        std::printf("%s", table.render().c_str());
    };
    list.push_back(std::move(fill));

    return list;
}

// ---- The runner -------------------------------------------------------

/** Append every (benchmark x run) job of @p e to @p queue. */
void
queueJobs(const Experiment &e, std::uint64_t budget,
          std::vector<campaign::Job> &queue)
{
    for (const std::string &bench : e.benchmarks) {
        for (const Run &run : e.runs) {
            SimConfig cfg = run.config;
            cfg.instructionLimit = budget;
            queue.push_back(campaign::makeJob(bench + "/" + run.name,
                                              bench, std::move(cfg)));
        }
    }
}

/**
 * Print @p e's tables from @p report, the outcomes of its queued jobs.
 * Returns false, after naming the failed jobs on stderr, when any job
 * failed; nothing is printed to stdout then.
 */
bool
printExperiment(const Experiment &e, std::uint64_t budget,
                const campaign::Report &report)
{
    if (report.failed() > 0) {
        for (const campaign::JobOutcome &out : report.jobs)
            if (!out.ok())
                std::fprintf(stderr, "experiments: %s: job '%s' failed: "
                             "%s\n", e.name.c_str(), out.label.c_str(),
                             out.error.c_str());
        return false;
    }

    std::printf("== %s ==\n", e.title.c_str());
    std::printf("paper reference: %s\n", e.paper.c_str());
    std::printf("instructions per run: %llu\n\n",
                static_cast<unsigned long long>(budget));
    for (const Table &t : e.tables)
        printTable(t, t.benchmarks.empty() ? e.benchmarks : t.benchmarks,
                   report);
    if (e.print)
        e.print(e, report);
    return true;
}

const char *const usageText =
    "usage: experiments NAME|all|--list [budget] [jobs]\n"
    "  budget  instructions per run (default 300000; fig9 200000)\n"
    "  jobs    worker threads (default 0 = one per hardware thread)\n";

/** Usage error: exit status 2. */
[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "experiments: %s\n%s", msg.c_str(), usageText);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 4)
        die("expected an experiment name");
    const std::string name = argv[1];
    if (name == "--help" || name == "-h") {
        std::printf("%s", usageText);
        return 0;
    }

    const std::vector<Experiment> table = experiments();
    if (name == "--list") {
        for (const Experiment &e : table)
            std::printf("%-26s %s\n", e.name.c_str(), e.title.c_str());
        return 0;
    }

    std::uint64_t budget = 0;   // 0: each experiment's own default
    unsigned jobs = 0;
    try {
        if (argc > 2)
            budget = parseUnsigned(argv[2], "budget", 1);
        if (argc > 3)
            jobs = campaign::parseWorkerCount(argv[3]);
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }

    // One campaign for every selected entry, so a simulation that
    // several entries print runs once.
    const auto budget_of = [budget](const Experiment &e) {
        return budget > 0 ? budget : e.budget;
    };
    std::vector<const Experiment *> selected;
    std::vector<std::size_t> starts;
    std::vector<campaign::Job> queue;
    for (const Experiment &e : table) {
        if (name != "all" && name != e.name)
            continue;
        selected.push_back(&e);
        starts.push_back(queue.size());
        queueJobs(e, budget_of(e), queue);
    }
    if (selected.empty())
        die("unknown experiment '" + name + "' (see --list)");
    starts.push_back(queue.size());

    campaign::Options options;
    options.jobs = jobs;
    const std::vector<std::size_t> rep =
        campaign::representatives(queue, options);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < rep.size(); ++i)
        distinct += rep[i] == i;
    std::fprintf(stderr, "experiments: %zu jobs, %zu distinct simulations\n",
                 queue.size(), distinct);
    campaign::Report report = campaign::runCampaign(queue, options);

    for (std::size_t k = 0; k < selected.size(); ++k) {
        const Experiment &e = *selected[k];
        campaign::Report part;
        part.jobs.assign(
            std::make_move_iterator(report.jobs.begin() + starts[k]),
            std::make_move_iterator(report.jobs.begin() + starts[k + 1]));
        if (!printExperiment(e, budget_of(e), part))
            return 1;
    }
    return 0;
}
