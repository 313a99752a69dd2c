/**
 * @file
 * Parameter sensitivity analysis: which Table-2 knob moves the estimate?
 *
 * For every configurable parameter of a scenario — per-vertex parallelism
 * and partition, per-edge delta, the shared interface/memory bandwidths,
 * and the port speed — compute the log-log elasticity of the modelled
 * capacity and mean latency (d ln output / d ln parameter, by central
 * finite differences on multiplicative perturbations). An elasticity of
 * +1 on capacity means "scales proportionally"; 0 means "not the
 * bottleneck, don't bother". This ranks optimization targets before any
 * design work — the S2.3 "performance analysis" promise made quantitative.
 */
#ifndef LOGNIC_CORE_SENSITIVITY_HPP_
#define LOGNIC_CORE_SENSITIVITY_HPP_

#include <string>
#include <vector>

#include "lognic/core/model.hpp"

namespace lognic::core {

/// Sensitivity of the two outputs to one parameter.
struct Sensitivity {
    std::string parameter;       ///< e.g. "vertex:cores:parallelism"
    double capacity_elasticity{0.0};
    double latency_elasticity{0.0};
};

/**
 * Analyze every configurable parameter of the scenario: continuous ones by
 * central differences at +/-5%, parallelism by +/- one engine. Results are
 * sorted by descending |capacity elasticity| (ties by latency impact).
 *
 * @throws std::invalid_argument on a malformed graph.
 */
std::vector<Sensitivity> analyze_sensitivity(const ExecutionGraph& graph,
                                             const HardwareModel& hw,
                                             const TrafficProfile& traffic);

} // namespace lognic::core

#endif // LOGNIC_CORE_SENSITIVITY_HPP_
