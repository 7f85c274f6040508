/**
 * @file
 * Quickstart: simulate one benchmark on the baseline CTCP with the
 * FDRT cluster-assignment strategy and print the headline numbers.
 *
 * Usage: quickstart [benchmark] [instructions]
 *   benchmark     any registered workload (default: gzip)
 *   instructions  instruction budget in decimal digits (default:
 *                 500000; 0 runs the workload to its halt)
 *
 * Exit status: 0 ok, 2 unknown benchmark or malformed budget.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/parse_number.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;

    const std::string bench = argc > 1 ? argv[1] : "gzip";
    std::uint64_t insts = 500'000;
    if (argc > 2) {
        try {
            insts = parseUnsigned(argv[2], "instruction budget");
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "quickstart: %s\n", e.what());
            return 2;
        }
    }

    if (!workloads::exists(bench)) {
        std::fprintf(stderr, "unknown benchmark '%s'; available:\n",
                     bench.c_str());
        for (const auto &info : workloads::all())
            std::fprintf(stderr, "  %-12s %s\n", info.name.c_str(),
                         info.description.c_str());
        return 2;
    }

    // Baseline machine (paper Table 7) with the paper's FDRT strategy.
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.instructionLimit = insts;

    Program prog = workloads::build(bench);
    CtcpSimulator sim(cfg, prog);
    SimResult r = sim.run();

    std::printf("benchmark     : %s\n", r.benchmark.c_str());
    std::printf("strategy      : %s\n", r.strategy.c_str());
    std::printf("instructions  : %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("cycles        : %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("IPC           : %.3f\n", r.ipc());
    std::printf("%% from TC     : %.2f\n", r.pctFromTraceCache);
    std::printf("trace size    : %.2f\n", r.meanTraceSize);
    std::printf("intra-cluster : %.2f%%\n", r.pctIntraClusterFwd);
    std::printf("fwd distance  : %.3f\n", r.meanFwdDistance);
    std::printf("bpred accuracy: %.2f%%\n", r.bpredAccuracy);
    std::printf("\nFull statistics:\n%s", sim.statsText().c_str());
    return 0;
}
