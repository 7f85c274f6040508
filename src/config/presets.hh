/**
 * @file
 * Named machine configurations used throughout the evaluation.
 *
 * baseConfig() is Table 7; the Figure 8 variants are the mesh
 * interconnect (ringConfig(), the "mesh" preset), one-cycle forwarding
 * and the eight-wide two-cluster machine.
 */

#ifndef CTCPSIM_CONFIG_PRESETS_HH
#define CTCPSIM_CONFIG_PRESETS_HH

#include <string>

#include "config/sim_config.hh"

namespace ctcp {

/** The paper's baseline: 16-wide, 4 clusters, 2-cycle hops, linear. */
SimConfig baseConfig();

/** Figure 8, group 2: one-cycle inter-cluster forwarding per hop. */
SimConfig oneCycleForwardConfig();

/**
 * Figure 8, group 3: eight-wide machine with two four-wide clusters
 * (half the execution resources; caches/predictor/TLB unchanged;
 * issue-time steering latency drops to two cycles).
 */
SimConfig twoClusterConfig();

/**
 * Ablation: shared-bus result interconnect (uniform 3-cycle broadcast,
 * one broadcast per cycle) instead of the point-to-point network —
 * the alternative Parcerisa et al. argue against.
 */
SimConfig busConfig();

/**
 * Forward-looking scaling point: eight four-wide clusters (32-wide
 * machine). Not evaluated in the paper; used by the scaling example
 * and ablation benches.
 */
SimConfig eightClusterConfig();

/**
 * Baseline machine on a ring interconnect (topology = Ring): Figure 8,
 * group 1, the paper's "mesh" (end clusters adjacent).
 */
SimConfig ringConfig();

/** Baseline machine on a full crossbar (every remote cluster 1 hop). */
SimConfig crossbarConfig();

/**
 * Baseline machine on a two-level hierarchy: groups of two clusters,
 * one hop inside a group, two hops across groups.
 */
SimConfig hierConfig();

/** A factory for one named preset. */
using PresetFactory = SimConfig (*)();

/**
 * The factory of the preset named @p name (base | mesh | onecycle |
 * twocluster | bus | eightcluster | ring | crossbar | hier), or
 * nullptr for an unknown name. The one name table behind the CLI
 * --preset flag and the campaign matrix's preset= clause.
 */
PresetFactory presetFactory(const std::string &name);

/**
 * Rescale @p cfg to @p num_clusters clusters of @p cluster_width slots:
 * recompute the fetch/decode/issue/retire widths, the trace-line size
 * and the width-proportional core resources (ROB = 8 x machine width;
 * 32-wide traces get a fourth basic block) the way the two- and
 * eight-cluster presets do. Shared by the presets, the CLI --clusters /
 * --cluster-width flags and the campaign-matrix clusters= axis so every
 * entry point derives the same machine.
 */
void applyMachineScale(SimConfig &cfg, unsigned num_clusters,
                       unsigned cluster_width);

} // namespace ctcp

#endif // CTCPSIM_CONFIG_PRESETS_HH
