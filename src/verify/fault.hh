/**
 * @file
 * Deterministic fault injection for the robustness test suite.
 *
 * Each injector corrupts exactly the redundant state one of the
 * engine's defenses guards, so tests can prove the defense fires:
 *
 *   corruptReadyAt     -> invariant checker (cached readiness)
 *   scrambleTraceLine  -> invariant checker (slot permutation)
 *   strandIssueEntry   -> invariant checker (one issue structure)
 *   stallRetirement    -> forward-progress watchdog (SimError, hang)
 *   flakyBuilder       -> campaign retry policy (workload errors)
 *   truncateFileTail   -> journal partial-record tolerance on resume
 *
 * All injectors are seeded/parameterized, never random: the same test
 * run trips the same defense on the same instruction every time.
 */

#ifndef CTCPSIM_VERIFY_FAULT_HH
#define CTCPSIM_VERIFY_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "prog/program.hh"

namespace ctcp {

class CtcpSimulator;

namespace verify {

/** Targeted corruptions of simulator-internal derived state. */
class FaultInjector
{
  public:
    /**
     * Corrupt the cached readyAt of one instruction currently on a
     * cluster's ready list (picked by @p seed, shifted by a
     * seed-derived amount). The next checked cycle must report an
     * invariant failure.
     *
     * @return false when no instruction was resident to corrupt
     */
    static bool corruptReadyAt(CtcpSimulator &sim, std::uint64_t seed);

    /**
     * Duplicate a physical slot inside the most recently used resident
     * trace line with at least two instructions, breaking its
     * slot->cluster permutation.
     *
     * @return false when no such line exists yet
     */
    static bool scrambleTraceLine(CtcpSimulator &sim);

    /**
     * Move one renamed, unissued instruction into the structure the
     * active mode does not issue from (an issue-queue entry into a
     * cluster queue, or the reverse), as a mode switch that left it
     * behind would.
     *
     * @return false when no instruction was waiting to issue
     */
    static bool strandIssueEntry(CtcpSimulator &sim);

    /** Suppress (or re-enable) retirement, starving forward progress. */
    static void stallRetirement(CtcpSimulator &sim, bool stalled);

    /**
     * Chop @p bytes off the end of @p path (journal mid-record
     * truncation). @return false when the file is missing or shorter
     */
    static bool truncateFileTail(const std::string &path,
                                 std::size_t bytes);
};

/**
 * A campaign Job builder that throws for its first @p failures
 * invocations, then delegates to @p inner. Call counts are shared
 * across copies of the returned std::function (campaign workers copy
 * builders), so "fails N times, then succeeds" survives retries.
 */
std::function<Program()> flakyBuilder(unsigned failures,
                                      std::function<Program()> inner);

} // namespace verify
} // namespace ctcp

#endif // CTCPSIM_VERIFY_FAULT_HH
