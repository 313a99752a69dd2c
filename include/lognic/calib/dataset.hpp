/**
 * @file
 * Calibration datasets: the measured (traffic profile, device config) →
 * (throughput, latency) observation points the paper fits Table-2
 * parameters against (S4.3, S4.7).
 *
 * A Dataset is the ground truth side of a calibration problem. It can be
 * loaded from JSON (real testbed measurements) or generated synthetically
 * by running the packet-level DES simulator over a traffic grid — the
 * repository's stand-in for a physical SmartNIC. Generation runs the
 * grid as a runner::Sweep with per-replication derived seeds, so a
 * generated dataset is bit-identical for any thread count.
 */
#ifndef LOGNIC_CALIB_DATASET_HPP_
#define LOGNIC_CALIB_DATASET_HPP_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/io/json.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::calib {

/// One measured operating point.
struct Observation {
    std::string label;
    core::TrafficProfile traffic;
    /// Which program produced this point (index into the calibration
    /// problem's graph list) — per-workload calibration needs per-graph
    /// observations, single-program calibrations leave it 0.
    std::size_t graph_index{0};
    Bandwidth throughput{Bandwidth{0.0}}; ///< achieved egress bandwidth
    Seconds mean_latency{0.0};
    Seconds p99_latency{0.0}; ///< 0 = not measured
    double weight{1.0};       ///< relative weight in the loss
};

io::Json to_json(const Observation& obs);
/// @throws std::runtime_error on malformed documents.
Observation observation_from_json(const io::Json& j);

/// An ordered collection of observations with deterministic splitting.
class Dataset {
  public:
    /// Append an observation; returns its index.
    std::size_t add(Observation obs);

    std::size_t size() const { return observations_.size(); }
    bool empty() const { return observations_.empty(); }
    const Observation& observation(std::size_t i) const
    {
        return observations_.at(i);
    }
    const std::vector<Observation>& observations() const
    {
        return observations_;
    }

    /**
     * Deterministic train/holdout split: each observation is assigned by
     * a SplitMix64 hash of (seed, index), so the split depends only on
     * (seed, size) — never on thread count or insertion history. At least
     * one observation stays in train; a fraction of 0 keeps everything
     * in train.
     *
     * @param holdout_fraction in [0, 1).
     * @throws std::invalid_argument on an out-of-range fraction.
     */
    std::pair<Dataset, Dataset> split(double holdout_fraction,
                                      std::uint64_t seed) const;

    /**
     * Deterministic k folds for cross-validation: a seeded pseudo-random
     * permutation of the indices dealt round-robin into k validation
     * sets. Returns (train, validation) pairs, one per fold.
     *
     * @throws std::invalid_argument when k < 2 or k > size().
     */
    std::vector<std::pair<Dataset, Dataset>> k_folds(std::size_t k,
                                                     std::uint64_t seed) const;

  private:
    std::vector<Observation> observations_;
};

io::Json to_json(const Dataset& data);
Dataset dataset_from_json(const io::Json& j);

/**
 * Grid spec for DES-generated synthetic ground truth. The grid is the
 * cartesian product rates x packet sizes (an empty axis keeps the base
 * profile's value, mirroring runner sweep specs).
 */
struct GenerationSpec {
    std::vector<double> rates_gbps;
    std::vector<double> packet_sizes_bytes;
    std::size_t replications{1};
    std::uint64_t root_seed{42};
    std::size_t threads{1};
    sim::SimOptions sim{}; ///< per-run options; the seed field is ignored
};

/**
 * Run the DES simulator over the spec's grid, rate-major, as a
 * runner::Sweep and collect one observation per point (the mean of its
 * replications, as runner::Replicator::aggregate folds them). Seeds
 * derive from (root_seed, point index, replication index); results are
 * bit-identical across thread counts.
 *
 * @throws std::invalid_argument on an empty effective grid or zero
 * replications.
 */
Dataset generate_dataset(const core::HardwareModel& hw,
                         const core::ExecutionGraph& graph,
                         const core::TrafficProfile& base,
                         const GenerationSpec& spec);

} // namespace lognic::calib

#endif // LOGNIC_CALIB_DATASET_HPP_
