/**
 * @file
 * CalibrationReport: everything a calibration run produced — the fitted
 * catalog, per-observation residuals, train/holdout goodness-of-fit,
 * per-start and per-fold outcomes, cache effectiveness, and
 * identifiability warnings for parameters the data cannot pin down.
 *
 * Reports round-trip through JSON (the `lognic calibrate` artifact format
 * CI schema-checks) and render as a human-readable summary.
 */
#ifndef LOGNIC_CALIB_REPORT_HPP_
#define LOGNIC_CALIB_REPORT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "lognic/io/json.hpp"
#include "lognic/solver/objective.hpp"

namespace lognic::calib {

/// Observed-vs-predicted record for one observation at the fitted point.
struct ResidualRecord {
    std::string label;
    bool holdout{false};
    double observed_throughput_gbps{0.0};
    double predicted_throughput_gbps{0.0};
    double throughput_rel_error{0.0}; ///< signed (pred - obs) / obs
    double observed_latency_us{0.0};
    double predicted_latency_us{0.0};
    double latency_rel_error{0.0};
};

/// A parameter the data cannot pin down, and why.
struct IdentifiabilityWarning {
    std::string parameter;
    /// "insensitive" (residuals barely move with the parameter),
    /// "collinear" (indistinguishable from another parameter), or
    /// "at_bound" (the fit pushed it onto a box face).
    std::string kind;
    std::string detail;
    double metric{0.0}; ///< sensitivity norm / |cosine| / bound value
};

/// Outcome of one multi-start fit attempt.
struct StartOutcome {
    std::size_t index{0};
    std::uint64_t seed{0};
    double initial_loss{0.0};
    double final_loss{0.0};
    bool converged{false};
    bool failed{false};      ///< the solve threw; error holds what()
    std::string message;     ///< termination reason or error text
    std::size_t iterations{0};
    std::uint64_t model_solves{0}; ///< uncached residual evaluations
    std::uint64_t cache_hits{0};
    std::uint64_t cache_misses{0};
};

/// Outcome of one cross-validation fold.
struct FoldOutcome {
    std::size_t fold{0};
    double train_error{0.0};      ///< mean |rel throughput error|, train
    double validation_error{0.0}; ///< same on the held-out fold
    bool failed{false};
    std::string message;
};

/// Mean absolute relative errors of a fitted catalog on one subset.
struct FitError {
    std::size_t observations{0};
    double throughput{0.0}; ///< mean |(pred - obs) / obs|
    double latency{0.0};
    double worst_throughput{0.0}; ///< max |(pred - obs) / obs|
};

/**
 * The fitting engine's name, as a report's "backend" key, its summary
 * line, and the calib checkpoint fingerprint spell it. Levenberg-Marquardt
 * is the only engine; the name is still written so that reports and
 * checkpoints stay byte-compatible with those written when the engine was
 * selectable.
 */
inline constexpr const char* kFitEngine = "least_squares";

struct CalibrationReport {
    std::string device; ///< hardware model name
    std::uint64_t seed{0};
    std::size_t starts{0};

    std::vector<std::string> parameter_names;
    solver::Vector initial;       ///< base-catalog values
    solver::Vector fitted;        ///< calibrated values
    solver::Vector lower, upper;  ///< the box searched

    double initial_loss{0.0};
    double best_loss{0.0};
    bool converged{false};
    std::string message;

    FitError train_error;
    FitError holdout_error; ///< observations == 0 when no holdout

    std::vector<StartOutcome> start_outcomes;
    std::vector<FoldOutcome> folds;
    std::vector<ResidualRecord> residuals;
    std::vector<IdentifiabilityWarning> warnings;

    /// Aggregate cache effectiveness across starts (deterministic: each
    /// start owns its cache).
    std::uint64_t cache_hits{0};
    std::uint64_t cache_misses{0};
    std::uint64_t model_solves{0};

    /// Running-best loss after each model solve of the winning start.
    std::vector<double> convergence;

    /// The fitted hardware catalog, serialized (io::to_json form); callers
    /// reload it with io::hardware_from_json.
    io::Json fitted_hardware;
};

io::Json to_json(const CalibrationReport& report);
/// @throws std::runtime_error on malformed documents.
CalibrationReport report_from_json(const io::Json& j);

/// Human-readable multi-line summary.
std::string render(const CalibrationReport& report);

} // namespace lognic::calib

#endif // LOGNIC_CALIB_REPORT_HPP_
