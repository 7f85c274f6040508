/**
 * @file
 * Figure 8 — strategy speedups under alternate cluster architectures:
 * a mesh interconnect (end clusters adjacent), one-cycle inter-cluster
 * forwarding, and an eight-wide machine with two four-wide clusters
 * (issue-time analysis latency drops to two cycles). Speedups are
 * relative to the matching architecture's own base machine.
 *
 * Paper shape: absolute speedups shrink for every strategy versus the
 * original architecture, FDRT stays ahead of issue-time steering in
 * all three variants, and the FDRT-vs-Friendly margin narrows.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Figure 8: Speedups For Other Cluster Configurations",
           "smaller gains everywhere; FDRT keeps its edge over "
           "issue-time in all variants",
           budget);

    struct Variant
    {
        const char *label;
        SimConfig (*make)();
    };
    const std::vector<Variant> variants = {
        {"Mesh Network", ringConfig},
        {"One Cycle Forward Lat", oneCycleForwardConfig},
        {"Eight-wide, Two-cluster", twoClusterConfig},
    };

    const AssignStrategy strategies[3] = {
        AssignStrategy::Fdrt, AssignStrategy::Friendly,
        AssignStrategy::IssueTime};
    const char *strategy_tags[3] = {"fdrt", "friendly", "issue-time"};

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const Variant &v : variants) {
        for (const std::string &bench : selectedSix()) {
            runs.add(bench, v.make(), std::string(v.label) + "/base");
            for (int m = 0; m < 3; ++m) {
                SimConfig cfg = v.make();
                cfg.assign.strategy = strategies[m];
                // twoClusterConfig already sets issueTimeLatency = 2.
                runs.add(bench, cfg,
                         std::string(v.label) + "/" + strategy_tags[m]);
            }
        }
    }
    runs.run();

    for (const Variant &v : variants) {
        std::printf("-- %s --\n", v.label);
        TextTable table({"benchmark", "FDRT", "Friendly", "Issue-time"});
        std::vector<std::vector<double>> speedups(3);
        for (const std::string &bench : selectedSix()) {
            const SimResult &base =
                runs.at(bench, std::string(v.label) + "/base");
            table.row(bench);
            for (int m = 0; m < 3; ++m) {
                const SimResult &r = runs.at(
                    bench, std::string(v.label) + "/" + strategy_tags[m]);
                const double speedup = static_cast<double>(base.cycles) /
                    static_cast<double>(r.cycles);
                table.cell(speedup, 3);
                speedups[static_cast<std::size_t>(m)].push_back(speedup);
            }
        }
        table.row("HM");
        for (auto &s : speedups)
            table.cell(harmonicMean(s), 3);
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
