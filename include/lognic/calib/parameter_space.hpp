/**
 * @file
 * Parameter spaces: expose a chosen subset of a hardware catalog (and,
 * optionally, execution-graph software parameters) as bounded free
 * variables for the calibrator.
 *
 * Table 2's device-side parameters (BW_INTF, BW_MEM, line rate, per-IP
 * service models and feed ceilings) and the per-vertex computation
 * overheads O_i are addressed by string paths, so calibration problems
 * travel as JSON. Paths:
 *
 *   interface_gbps                         BW_INTF
 *   memory_gbps                            BW_MEM
 *   line_rate_gbps                         ingress/egress engine rate
 *   ip.<name>.fixed_cost_us                engine per-request fixed cost
 *   ip.<name>.byte_rate_gbps               engine streaming rate
 *   ip.<name>.ceiling.<ceiling>.gbps       one named data-feed ceiling
 *   ip.<name>.service_scv                  engine service-time SCV
 *   graph.<g>.vertex.<vname>.overhead_us   O_i of one vertex in graph g
 *
 * Each parameter carries box bounds; unspecified bounds default to
 * [value/8, value*8] around the base catalog (a calibration is a
 * refinement, not a blind search).
 */
#ifndef LOGNIC_CALIB_PARAMETER_SPACE_HPP_
#define LOGNIC_CALIB_PARAMETER_SPACE_HPP_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/solver/objective.hpp"

namespace lognic::calib {

/**
 * A candidate device configuration: the hardware catalog plus the
 * program(s) whose software parameters may also be fitted. Observations
 * reference graphs by index.
 */
struct Candidate {
    core::HardwareModel hw;
    std::vector<core::ExecutionGraph> graphs;
};

/// Split a path on dots: "a.b.c" -> {"a", "b", "c"}, "" -> {""}.
std::vector<std::string> split_path(const std::string& path);

/// One free variable of a calibration.
struct Parameter {
    std::string name;
    double lower{0.0};
    double upper{0.0};
    std::function<double(const Candidate&)> get;
    std::function<void(Candidate&, double)> set;
};

class ParameterSpace {
  public:
    explicit ParameterSpace(Candidate base);

    const Candidate& base() const { return base_; }

    /**
     * Expose the field at @p path (grammar in the file header) with
     * default bounds [base/8, base*8]. Returns the parameter's index.
     * @throws std::invalid_argument on unknown paths, duplicate names, or
     * a base value of zero (default bounds would collapse).
     */
    std::size_t add(const std::string& path);
    /// Same, with explicit bounds (lower < upper, lower >= 0 enforced for
    /// the built-in physical quantities).
    std::size_t add(const std::string& path, double lower, double upper);
    /// Fully custom parameter (arbitrary accessors).
    std::size_t add_custom(Parameter p);

    std::size_t size() const { return params_.size(); }
    const Parameter& parameter(std::size_t i) const
    {
        return params_.at(i);
    }
    std::optional<std::size_t> find(const std::string& name) const;

    /// Current base-catalog values, in parameter order.
    solver::Vector initial() const;
    solver::Bounds bounds() const;
    /**
     * Typical magnitude per dimension for scale-aware finite-difference
     * steps: max(|initial|, (upper - lower) / 1000).
     */
    solver::Vector scales() const;

    /// Base candidate with the parameter vector applied.
    /// @throws std::invalid_argument on a size mismatch.
    Candidate apply(const solver::Vector& x) const;
    /// Read the parameter vector back out of a candidate.
    solver::Vector extract(const Candidate& c) const;

  private:
    Candidate base_;
    std::vector<Parameter> params_;
};

} // namespace lognic::calib

#endif // LOGNIC_CALIB_PARAMETER_SPACE_HPP_
