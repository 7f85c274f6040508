/**
 * @file
 * Textual campaign-matrix specifications.
 *
 * A matrix spec is a semicolon-separated list of `key=v1,v2,...`
 * clauses; the campaign is the full cross product of the listed
 * dimensions, submitted bench-major (bench, then preset, then
 * strategy, then budget) so job order — and therefore the aggregated
 * report — is independent of how the spec is executed.
 *
 *   bench     benchmark names, and/or the groups
 *             six | specint | media | all        (default: six)
 *   strategy  base | friendly | fdrt | issue-time[:LAT] | adaptive
 *             (LAT overrides the extra issue-time front-end stages;
 *             default list: base)
 *   preset    base | mesh | onecycle | twocluster | bus | eightcluster
 *             | ring | crossbar | hier (default: base)
 *   topology  linear | ring | crossbar | hier | bus — overrides the
 *             preset's interconnect; when absent the dimension
 *             contributes nothing (no label suffix, preset untouched)
 *   clusters  cluster counts in 1..8 — rescales the machine via
 *             applyMachineScale; absent = dimension contributes
 *             nothing
 *   budget    instruction budgets per run (default: 300000)
 *   slots     global job indices (single values or a-b ranges) into
 *             the expanded cross product; the spec then yields only
 *             those jobs, with labels and configs unchanged.  Used to
 *             shard one campaign across hosts: each runs a subset,
 *             its journal records keep their global slot index, and
 *             ctcp_merge merges the journals (absent = all jobs)
 *
 * Example: "bench=gzip,twolf;strategy=base,fdrt,issue-time:0;budget=200000"
 * expands to 6 jobs labelled "<bench>/<preset>/<strategy>"; listed
 * topology/clusters values append "/<topology>" and "/c<clusters>"
 * label segments in that order.
 */

#ifndef CTCPSIM_CAMPAIGN_MATRIX_HH
#define CTCPSIM_CAMPAIGN_MATRIX_HH

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace ctcp::campaign {

/**
 * Expand @p spec into the cross product of its dimensions.
 * @throws std::invalid_argument on syntax errors, unknown keys,
 *         benchmarks, strategies or presets, and slot indices at or
 *         past the job count (checked before any range is expanded).
 */
std::vector<Job> parseMatrix(const std::string &spec);

/**
 * As above, and report each returned job's global slot index in the
 * full cross product: @p slotIndices[i] is the index job i would have
 * had without a `slots=` clause.  Without the clause this is the
 * identity mapping; with it, the sorted, deduplicated clause values.
 * Journals written against the map merge cleanly across shards because
 * every record carries its campaign-wide index.
 */
std::vector<Job> parseMatrix(const std::string &spec,
                             std::vector<std::size_t> &slotIndices);

/** One-paragraph syntax reference for CLI help text. */
const char *matrixSyntaxHelp();

} // namespace ctcp::campaign

#endif // CTCPSIM_CAMPAIGN_MATRIX_HH
