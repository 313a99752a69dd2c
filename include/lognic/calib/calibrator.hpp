/**
 * @file
 * The calibrator: fit a (parameter space, dataset, loss) problem with
 * Levenberg-Marquardt (solver::levenberg_marquardt, the one fitting
 * engine) under bounds, with multi-start, per-start LRU memoization, and
 * optional k-fold cross-validation, and emit a CalibrationReport.
 *
 * Concurrency contract (inherited from lognic::runner): every start and
 * every fold derives its seed from the root seed and its index, owns all
 * of its state (including its eval cache), and results are reduced by
 * index — so a calibration is bit-identical for any thread count. A start
 * whose solve throws is captured as a failed StartOutcome (run_guarded
 * semantics); the calibration only fails if *every* start fails.
 *
 * Two layers:
 *  - fit_residuals(): the generic bounded multi-start engine over a raw
 *    residual function (what ssd::calibrate delegates to);
 *  - Calibrator: the model-aware layer that builds residuals from a
 *    ParameterSpace + Dataset + LossOptions, adds holdout/CV splits,
 *    identifiability analysis, and report generation.
 */
#ifndef LOGNIC_CALIB_CALIBRATOR_HPP_
#define LOGNIC_CALIB_CALIBRATOR_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lognic/calib/cache.hpp"
#include "lognic/calib/dataset.hpp"
#include "lognic/calib/loss.hpp"
#include "lognic/calib/parameter_space.hpp"
#include "lognic/calib/report.hpp"
#include "lognic/obs/metrics.hpp"

namespace lognic::calib {

// --- the generic fit engine ---------------------------------------------------

/// A raw bounded residual-fitting problem.
struct FitProblem {
    solver::VectorFn residuals;
    solver::Vector x0;
    solver::Bounds bounds{};
    /// Typical per-dimension magnitudes for scale-aware FD steps and
    /// random-start spreads; empty derives them from x0 and the bounds.
    solver::Vector scales{};
};

/**
 * Everything one start produced, in the form a checkpoint journal stores
 * and a resumed fit replays: the public outcome plus the solution vector,
 * residuals, and convergence trace the engine needs to pick a winner and
 * build the report. A replayed start is indistinguishable from a re-run
 * one — starts are pure in their index.
 */
struct StartRecord {
    StartOutcome outcome;
    solver::Vector x;
    solver::Vector residuals;
    std::vector<double> convergence;
};

/// Resume source: true + filled record when start @p k is journaled.
using StartLookup = std::function<bool(std::size_t k, StartRecord& out)>;

/// Completion sink: fired once per freshly-computed start (failed ones
/// included), from the worker thread that ran it.
using StartHook = std::function<void(std::size_t k, const StartRecord&)>;

struct FitOptions {
    std::size_t starts{4};
    std::size_t threads{1};
    std::uint64_t seed{42};
    std::size_t cache_capacity{4096};
    std::size_t max_iterations{200};
    /// Checkpoint/resume seams (see lognic::ckpt). Inner fits (k-fold
    /// cross-validation) always run with cleared hooks: only top-level
    /// starts are checkpointable units.
    StartLookup resume_lookup{};
    StartHook on_start_complete{};
};

/// Engine outcome: the incumbent plus per-start records.
struct FitOutcome {
    solver::Vector x;
    double loss{0.0};
    bool converged{false};
    std::string message;
    std::vector<StartOutcome> starts;
    std::vector<double> convergence; ///< winning start's trace
    solver::Vector residuals;        ///< residual vector at x

    std::uint64_t cache_hits() const;
    std::uint64_t cache_misses() const;
    std::uint64_t model_solves() const;
};

/**
 * Multi-start bounded fit. Start 0 begins at problem.x0; start k > 0 at a
 * deterministic pseudo-random point in the box (seeded from
 * derive_seed(options.seed, k)). Starts fan across options.threads
 * runner threads; each owns a private eval cache. The best start wins
 * (ties broken by lower index).
 *
 * @throws std::invalid_argument on an empty problem or zero starts;
 * @throws std::runtime_error when every start fails.
 */
FitOutcome fit_residuals(const FitProblem& problem,
                         const FitOptions& options);

// --- the model-aware calibrator -----------------------------------------------

struct CalibratorOptions {
    FitOptions fit{};
    LossOptions loss{};
    /// Fraction of the dataset held out for goodness-of-fit validation
    /// (deterministic split keyed on fit.seed). 0 = no holdout.
    double holdout_fraction{0.0};
    /// k-fold cross-validation over the training set (k >= 2 enables it).
    std::size_t k_folds{0};
};

class Calibrator {
  public:
    /**
     * @param space The free parameters over a base candidate.
     * @param data Ground-truth observations.
     * @throws std::invalid_argument on an empty space or dataset, when an
     * observation references a missing graph, when holdout_fraction is
     * outside [0, 1), or when k_folds is 1 or exceeds the training split.
     */
    Calibrator(ParameterSpace space, Dataset data, CalibratorOptions opts);

    const ParameterSpace& space() const { return space_; }
    const Dataset& data() const { return data_; }

    /**
     * Run the calibration. When @p metrics is non-null, publishes
     * convergence and goodness-of-fit series into it
     * ("calib.*" counters/gauges plus a residual histogram).
     */
    CalibrationReport fit(obs::MetricsRegistry* metrics = nullptr) const;

  private:
    ParameterSpace space_;
    Dataset data_;
    CalibratorOptions opts_;
    Dataset train_;   ///< data_ minus the holdout split
    Dataset holdout_; ///< the holdout_fraction split
};

} // namespace lognic::calib

#endif // LOGNIC_CALIB_CALIBRATOR_HPP_
