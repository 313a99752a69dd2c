/**
 * @file
 * Composable calibration losses: how far a candidate catalog's analytical
 * predictions sit from a dataset's measurements.
 *
 * The loss is expressed as a residual vector (one block per observation),
 * which Levenberg-Marquardt takes directly; its scalar value is
 * 0.5*||r||^2.
 * Components (throughput, mean latency, p99 latency) are weighted and may
 * be relative (dimensionless — the default, it balances Gbps against
 * microseconds) or absolute. An optional pseudo-Huber transform caps the
 * influence of outlier observations while staying smooth.
 */
#ifndef LOGNIC_CALIB_LOSS_HPP_
#define LOGNIC_CALIB_LOSS_HPP_

#include "lognic/calib/dataset.hpp"
#include "lognic/calib/parameter_space.hpp"
#include "lognic/core/model.hpp"
#include "lognic/io/json.hpp"
#include "lognic/solver/objective.hpp"

namespace lognic::calib {

/// How a residual compares prediction against observation.
enum class ResidualKind {
    kRelative, ///< (pred - obs) / obs  (obs must be nonzero)
    kAbsolute, ///< pred - obs, in the quantity's canonical unit
};

const char* to_string(ResidualKind kind);
ResidualKind residual_kind_from_string(const std::string& name);

struct LossOptions {
    double throughput_weight{1.0};
    double latency_weight{1.0};
    double p99_weight{0.0}; ///< 0 skips the p99 component entirely
    ResidualKind kind{ResidualKind::kRelative};
    /**
     * Pseudo-Huber scale delta: residuals far beyond delta contribute
     * linearly instead of quadratically. 0 disables the transform.
     */
    double huber_delta{0.0};
};

io::Json to_json(const LossOptions& loss);
LossOptions loss_from_json(const io::Json& j);

/// Residual components produced per observation under @p loss.
std::size_t components_per_observation(const LossOptions& loss);

/// Signed pseudo-Huber transform of one residual (identity when
/// delta == 0): sign(r) * delta * sqrt(2*(sqrt(1 + (r/delta)^2) - 1)).
double huberize(double r, double delta);

/// Analytical-model predictions for one observation.
struct Prediction {
    Bandwidth throughput{Bandwidth{0.0}};
    Seconds mean_latency{0.0};
    Seconds p99_latency{0.0};
};

/**
 * Run the analytical model for @p obs against a candidate catalog.
 * @throws std::out_of_range when obs.graph_index has no graph.
 */
Prediction predict(const Candidate& candidate, const Observation& obs);

/// Append the observation's weighted residual block to @p out.
void append_residuals(const LossOptions& loss, const Observation& obs,
                      const Prediction& pred, solver::Vector& out);

/**
 * Build the full residual function of a calibration problem:
 * r(x) = residuals of space.apply(x) against every observation of
 * @p data, in dataset order. The returned callable owns copies of its
 * inputs and is safe to evaluate from worker threads (each evaluation
 * builds its own candidate).
 */
solver::VectorFn make_residual_fn(const ParameterSpace& space,
                                  const Dataset& data,
                                  const LossOptions& loss);

/// 0.5 * ||r||^2 — the scalar loss Levenberg-Marquardt minimizes.
double total_loss(const solver::Vector& residuals);

} // namespace lognic::calib

#endif // LOGNIC_CALIB_LOSS_HPP_
