/**
 * @file
 * Levenberg-Marquardt nonlinear least squares.
 *
 * The one fitting engine of the `lognic::calib` subsystem, and so of the
 * paper's SSD calibration methodology (S4.3, S4.7): fit a small parametric
 * latency/throughput predictor to observed samples and extract LogNIC
 * parameters from the fit.
 */
#ifndef LOGNIC_SOLVER_LEAST_SQUARES_HPP_
#define LOGNIC_SOLVER_LEAST_SQUARES_HPP_

#include "lognic/solver/objective.hpp"

namespace lognic::solver {

/// Why a Levenberg-Marquardt run stopped.
enum class LsTermination {
    kGradientTolerance, ///< converged: gradient below tolerance
    kStepTolerance,     ///< converged: accepted step below tolerance
    kStalled,           ///< no descent step found (damping saturated)
    kIterationLimit,    ///< budget exhausted before any tolerance was met
};

const char* to_string(LsTermination reason);

struct LeastSquaresOptions {
    std::size_t max_iterations{200};
    double gradient_tolerance{1e-10};
    double step_tolerance{1e-12};
    double initial_damping{1e-3};
    Bounds bounds{};
    /**
     * Finite-difference Jacobian step, *relative to each parameter's
     * magnitude*: h_i = relative_step * max(|x_i|, scale_i). Parameters
     * spanning wildly different scales (bandwidths in bits/s next to
     * service times in seconds) each get a proportionate perturbation
     * instead of one absolute step.
     */
    double relative_step{1e-6};
    /**
     * Per-dimension typical magnitudes (the scale_i floor above), used
     * where a parameter sits at or near zero. Empty: a uniform floor of
     * 1e-8 per dimension.
     */
    Vector scales{};
};

/// Result of a fit; value is the final sum of squared residuals.
struct LeastSquaresResult : SolveResult {
    Vector residuals; ///< residual vector at the solution
    LsTermination termination{LsTermination::kIterationLimit};
};

/**
 * Minimize 0.5 * ||r(x)||^2 with the Levenberg-Marquardt algorithm. A run
 * that meets no tolerance still returns its last iterate, with converged
 * false and termination saying why it stopped.
 *
 * @param residual_fn Residual vector r(x); its length must not vary with x.
 * @param x0 Initial parameter guess.
 */
LeastSquaresResult levenberg_marquardt(const VectorFn& residual_fn, Vector x0,
                                       const LeastSquaresOptions& opts = {});

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_LEAST_SQUARES_HPP_
