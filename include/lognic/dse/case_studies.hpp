/**
 * @file
 * The paper's LogNIC-opt case studies (S4.4-S4.6) as design-space
 * explorations.
 *
 * Each study is an exhaustive, model-only dse::explore (DES off) over
 * knobs the engine already has, and its answer is the frontier entry
 * suggest() picks:
 *
 *   placement    placement.nf_chain, all 16 NF-chain placements; max
 *                capacity_gbps, then min mean_latency_us (Figs. 13/14)
 *   allocation   vertex.<stage>.parallelism per E3 stage, levels
 *                1..total-(k-1) at cost weight 1, under cost == total (the
 *                pruner settles every other sum without a solve); max
 *                capacity_gbps, then min mean_latency_us (Figs. 11/12)
 *   split        split.a2_percent, X in 5, 6, ..., 75, a knob that
 *                rebuilds Model 2; min mean_latency_us under
 *                drop_rate <= 0.01 (Figs. 16/17)
 *   parallelism  vertex.ip4.parallelism 1..max at cost weight 1; max
 *                capacity_gbps, then min cost, with capacities within a
 *                relative 1e-3 of the best counting as saturated
 *                (Figs. 18/19)
 *
 * The *_study() builders return the runnable spec, so a caller can run
 * the same search under other options (threads, pruning) or inspect the
 * whole frontier; the lognic_opt_*() functions run it and decode the
 * pick.
 */
#ifndef LOGNIC_DSE_CASE_STUDIES_HPP_
#define LOGNIC_DSE_CASE_STUDIES_HPP_

#include <cstdint>
#include <vector>

#include "lognic/apps/microservices.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/dse/spec.hpp"

namespace lognic::dse {

/**
 * The frontier entry a search suggests: the best first objective, where
 * entries within the relative @p tolerance of it count as tied; among
 * ties the best second objective (when there is one); then the lowest
 * level indices, compared knob by knob.
 *
 * @throws std::invalid_argument on an empty frontier (no feasible
 * config) or a negative tolerance.
 */
FrontierEntry suggest(const FrontierReport& report, double tolerance = 0.0);

ExploreSpec placement_study(const core::TrafficProfile& traffic);

/// @throws std::invalid_argument when @p total cannot give every stage a
/// core or exceeds the 16 cnMIPS cores.
ExploreSpec alloc_study(apps::E3Workload workload,
                        const core::TrafficProfile& traffic,
                        std::uint32_t total = 16);

ExploreSpec split_study(const core::TrafficProfile& traffic);

/// @throws std::invalid_argument outside make_panic_hybrid's ranges.
ExploreSpec parallelism_study(double ip3_fraction,
                              const core::TrafficProfile& traffic,
                              std::uint32_t max_parallelism = 8);

/// LogNIC-opt NF placement under @p traffic (Figs. 13/14).
apps::NfPlacement lognic_opt_placement(const core::TrafficProfile& traffic);

/// LogNIC-opt per-stage core counts, summing to @p total (Figs. 11/12).
std::vector<std::uint32_t> lognic_opt_alloc(
    apps::E3Workload workload, const core::TrafficProfile& traffic,
    std::uint32_t total = 16);

/// LogNIC-suggested steering X, the percent of traffic sent to A2
/// (Figs. 16/17).
double lognic_opt_split(const core::TrafficProfile& traffic);

/// The smallest IP4 parallel degree that reaches the saturated capacity
/// (Figs. 18/19: 6 for the 50%/50% split, 4 for 80%/20%).
std::uint32_t lognic_opt_parallelism(double ip3_fraction,
                                     const core::TrafficProfile& traffic,
                                     std::uint32_t max_parallelism = 8);

} // namespace lognic::dse

#endif // LOGNIC_DSE_CASE_STUDIES_HPP_
