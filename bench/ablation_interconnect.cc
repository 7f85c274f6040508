/**
 * @file
 * Ablation of the inter-cluster interconnect: the baseline linear
 * point-to-point network, the mesh (ring) variant, and a shared
 * broadcast bus (uniform latency, one broadcast per cycle) — the
 * design Parcerisa et al. showed inferior to point-to-point, which
 * the paper takes as a premise.
 *
 * Expected shape: p2p linear > bus (bandwidth serialization dominates
 * despite the bus's shorter worst-case "distance"); the mesh is best;
 * FDRT's relative gain is largest where forwarding is most expensive.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Ablation: interconnect topology (p2p vs mesh vs bus)",
           "point-to-point beats bus (Parcerisa et al.); mesh best",
           budget);

    struct Net
    {
        const char *label;
        SimConfig (*make)();
    };
    const std::vector<Net> nets = {
        {"linear p2p", baseConfig},
        {"mesh p2p", ringConfig},
        {"shared bus", busConfig},
    };

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix()) {
        for (const Net &net : nets) {
            runs.add(bench, net.make(), std::string(net.label) + "/base");
            SimConfig fdrt = net.make();
            fdrt.assign.strategy = AssignStrategy::Fdrt;
            runs.add(bench, fdrt, std::string(net.label) + "/fdrt");
        }
    }
    runs.run();

    TextTable table({"benchmark", "linear IPC", "mesh IPC", "bus IPC",
                     "linear+fdrt", "mesh+fdrt", "bus+fdrt"});
    std::vector<double> base_ipc(3, 0.0), fdrt_ipc(3, 0.0);
    for (const std::string &bench : selectedSix()) {
        table.row(bench);
        double ipc[3], fipc[3];
        for (std::size_t n = 0; n < nets.size(); ++n) {
            const SimResult &rb =
                runs.at(bench, std::string(nets[n].label) + "/base");
            const SimResult &rf =
                runs.at(bench, std::string(nets[n].label) + "/fdrt");
            ipc[n] = rb.ipc();
            fipc[n] = rf.ipc();
            base_ipc[n] += rb.ipc();
            fdrt_ipc[n] += rf.ipc();
        }
        for (double v : ipc)
            table.cell(v, 3);
        for (double v : fipc)
            table.cell(v, 3);
    }
    table.row("Mean");
    for (double v : base_ipc)
        table.cell(v / 6.0, 3);
    for (double v : fdrt_ipc)
        table.cell(v / 6.0, 3);
    std::printf("%s", table.render().c_str());
    return 0;
}
