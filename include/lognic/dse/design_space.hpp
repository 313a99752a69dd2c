/**
 * @file
 * Discrete design spaces for what-if exploration (lognic::dse).
 *
 * A DesignSpace is a base Scenario (hardware + execution graph + traffic)
 * plus an ordered list of *knobs*, each a named axis with a finite,
 * strictly increasing list of levels. A Config picks one level per knob;
 * materialize() produces the concrete scenario the model/DES evaluates.
 *
 * Knobs are declared by string path. Hardware-catalog paths reuse
 * calib::ParameterSpace's path machinery verbatim (same grammar, same
 * validation and error messages):
 *
 *   interface_gbps / memory_gbps / line_rate_gbps
 *   ip.<name>.fixed_cost_us / byte_rate_gbps / service_scv
 *   ip.<name>.ceiling.<ceiling>.gbps
 *   graph.<g>.vertex.<vname>.overhead_us
 *
 * dse adds the software/provisioning axes the case studies explore:
 *
 *   vertex.<name>.parallelism      per-vertex engine count D_vi
 *   vertex.<name>.queue_capacity   per-vertex queue depth N_vi
 *   traffic.rate_gbps              offered ingress load
 *   placement.nf_chain             NF-chain offload placement (16 levels,
 *                                  §4.5; replaces hw + graph wholesale)
 *
 * Scenario-rebuilding knobs (placement.*) are applied before all others
 * and are mutually exclusive with knobs whose accessors were resolved
 * against base-scenario names (ip.*, graph.*, vertex.*): an accessor
 * bound to "ip.crypto" has no defined meaning on a rebuilt hardware
 * model, so the combination is rejected at declaration time.
 *
 * Every Config has a canonical key ("name=<IEEE-754 hex>;...") and a
 * 64-bit FNV-1a fingerprint of it — the memo-cache key, journal key, and
 * deterministic candidate id respectively.
 */
#ifndef LOGNIC_DSE_DESIGN_SPACE_HPP_
#define LOGNIC_DSE_DESIGN_SPACE_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lognic/dse/pareto.hpp"
#include "lognic/io/json.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {

/// One discrete axis of the space.
struct Knob {
    std::string name;
    /// Ordered levels (strictly increasing); Config stores indices into
    /// this list.
    std::vector<double> values;
    /// Contribution of this knob to the built-in "cost" objective:
    /// cost += value * cost_weight.
    double cost_weight{0.0};
    /// Applied before every other knob; replaces hw + graph (placement.*).
    bool rebuilds_scenario{false};
    /// Accessor resolved against base-scenario names (ip.*, vertex.*, ...);
    /// incompatible with rebuilds_scenario knobs.
    bool base_bound{false};
    std::function<void(io::Scenario&, double)> apply;
};

class DesignSpace {
  public:
    explicit DesignSpace(io::Scenario base);

    const io::Scenario& base() const { return base_; }

    /**
     * Declare the knob at @p path (grammar in the file header) with the
     * given levels. Returns the knob's index. @throws std::invalid_argument
     * on unknown paths, duplicate names, empty/non-increasing/non-finite
     * level lists, invalid levels for the path (e.g. non-integer
     * parallelism), or an incompatible rebuild/base-bound combination.
     * For placement.nf_chain an empty @p values means all 16 placements;
     * each declared placement's chain is built here, once, and every
     * materialize() copies it.
     */
    std::size_t add(const std::string& path, std::vector<double> values,
                    double cost_weight = 0.0);
    /// Fully custom knob (arbitrary apply).
    std::size_t add_custom(Knob k);

    std::size_t size() const { return knobs_.size(); }
    const Knob& knob(std::size_t i) const { return knobs_.at(i); }
    std::optional<std::size_t> find(const std::string& name) const;

    /// Total number of configs (product of level counts), saturating at
    /// UINT64_MAX.
    std::uint64_t combinations() const;

    /// @throws std::invalid_argument on size mismatch or out-of-range
    /// level indices.
    void validate(const Config& c) const;

    /// Base scenario with @p c applied (rebuild knobs first).
    io::Scenario materialize(const Config& c) const;

    /// The "cost" objective: sum of value * cost_weight over knobs.
    double cost(const Config& c) const;

    /// Canonical exact key: "name=<IEEE-754 hex>;..." in knob order.
    std::string canonical_key(const Config& c) const;
    /// FNV-1a 64 of canonical_key(): the deterministic candidate id.
    std::uint64_t fingerprint(const Config& c) const;

    /// {"knob name": level value, ...} for reports.
    io::Json config_json(const Config& c) const;

  private:
    io::Scenario base_;
    std::vector<Knob> knobs_;
};

} // namespace lognic::dse

#endif // LOGNIC_DSE_DESIGN_SPACE_HPP_
