/**
 * @file
 * Solver edge cases the calibration subsystem leans on: rank-deficient
 * Jacobians, scale-aware finite-difference steps, bound-respecting probes,
 * and non-convergence reported through the termination reason.
 */
#include <cmath>
#include <gtest/gtest.h>

#include "lognic/solver/least_squares.hpp"

namespace lognic::solver {
namespace {

TEST(LevenbergMarquardtEdge, RankDeficientJacobianStillDescends)
{
    // Residuals depend only on p0 + p1: the Jacobian has rank 1 and
    // J^T J is singular. The Marquardt damping must keep the normal
    // equations solvable and the iterate finite.
    const VectorFn residuals = [](const Vector& p) {
        const double s = p[0] + p[1];
        return Vector{s - 4.0, 2.0 * (s - 4.0), -0.5 * (s - 4.0)};
    };
    const auto fit = levenberg_marquardt(residuals, {0.0, 0.0});
    ASSERT_EQ(fit.x.size(), 2u);
    EXPECT_TRUE(std::isfinite(fit.x[0]));
    EXPECT_TRUE(std::isfinite(fit.x[1]));
    EXPECT_NEAR(fit.x[0] + fit.x[1], 4.0, 1e-6);
    EXPECT_LT(fit.value, 1e-10);
}

TEST(LevenbergMarquardtEdge, ScaleAwareStepsHandleMixedMagnitudes)
{
    // A bandwidth-sized parameter (~1e9) next to a latency-sized one
    // (~1e-6): one absolute FD step cannot probe both, per-dimension
    // relative steps can.
    const VectorFn residuals = [](const Vector& p) {
        return Vector{(p[0] - 2.0e9) / 1.0e9, (p[1] - 3.0e-6) / 1.0e-6};
    };
    LeastSquaresOptions opts;
    opts.scales = {1.0e9, 1.0e-6};
    // Normalizing residuals by 1e9 shrinks the gradient too; tighten the
    // tolerance so the test measures FD-step accuracy, not the stop rule.
    opts.gradient_tolerance = 1e-16;
    const auto fit = levenberg_marquardt(residuals, {1.0e8, 1.0e-7}, opts);
    EXPECT_NEAR(fit.x[0] / 2.0e9, 1.0, 1e-6);
    EXPECT_NEAR(fit.x[1] / 3.0e-6, 1.0, 1e-6);
}

TEST(LevenbergMarquardtEdge, ScalesFloorCoversZeroInitialGuess)
{
    // |x_i| = 0 at the start: without the scale floor the FD step would
    // collapse to the 1e-8 default; with an explicit scale it stays
    // proportionate and the fit still lands.
    const VectorFn residuals = [](const Vector& p) {
        return Vector{(p[0] - 5.0e8) / 1.0e9};
    };
    LeastSquaresOptions opts;
    opts.scales = {1.0e9};
    opts.gradient_tolerance = 1e-16;
    const auto fit = levenberg_marquardt(residuals, {0.0}, opts);
    EXPECT_NEAR(fit.x[0] / 5.0e8, 1.0, 1e-6);
}

TEST(LevenbergMarquardtEdge, JacobianProbesStayInsideTheBox)
{
    // Start pinned to the upper bound: the forward FD probe would leave
    // the box, so the implementation must flip to a backward difference.
    // The residual function records any out-of-box evaluation.
    const double ub = 4.0;
    bool escaped = false;
    const VectorFn residuals = [&](const Vector& p) {
        if (p[0] > ub * (1.0 + 1e-12))
            escaped = true;
        return Vector{p[0] - 2.0};
    };
    LeastSquaresOptions opts;
    opts.bounds.lower = {0.0};
    opts.bounds.upper = {ub};
    const auto fit = levenberg_marquardt(residuals, {ub}, opts);
    EXPECT_FALSE(escaped);
    EXPECT_NEAR(fit.x[0], 2.0, 1e-6);
}

TEST(LevenbergMarquardtEdge, IterationLimitIsNotConverged)
{
    // Rosenbrock residuals need far more than 2 iterations.
    const VectorFn residuals = [](const Vector& p) {
        return Vector{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
    };
    const Vector x0{-1.2, 1.0};
    const Vector r0 = residuals(x0);
    const double initial_cost = 0.5 * (r0[0] * r0[0] + r0[1] * r0[1]);
    LeastSquaresOptions opts;
    opts.max_iterations = 2;
    const auto fit = levenberg_marquardt(residuals, x0, opts);
    EXPECT_FALSE(fit.converged);
    EXPECT_EQ(fit.termination, LsTermination::kIterationLimit);
    EXPECT_EQ(fit.iterations, 2u);
    // The unconverged result is still a usable iterate, not a husk.
    ASSERT_EQ(fit.x.size(), 2u);
    EXPECT_LT(fit.value, initial_cost);
    EXPECT_EQ(fit.residuals.size(), 2u);
}

TEST(LevenbergMarquardtEdge, TerminationReasonsHaveDistinctNames)
{
    const LsTermination all[] = {
        LsTermination::kGradientTolerance,
        LsTermination::kStepTolerance,
        LsTermination::kStalled,
        LsTermination::kIterationLimit,
    };
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_NE(to_string(all[i]), nullptr);
        EXPECT_NE(std::string(to_string(all[i])), "");
        for (std::size_t j = i + 1; j < 4; ++j)
            EXPECT_NE(std::string(to_string(all[i])),
                      std::string(to_string(all[j])));
    }
}

TEST(LevenbergMarquardtEdge, RecoversGroundTruthFromNoisyData)
{
    // y = 5 exp(-0.7 x) + 1 with deterministic "measurement noise",
    // fitted under bounds — the shape of a real calibration problem.
    const std::vector<double> xs{0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0};
    const std::vector<double> noise{0.02, -0.03, 0.01,  0.02,
                                    -0.02, 0.03, -0.01, 0.02};
    const VectorFn residuals = [&](const Vector& p) {
        Vector r(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double truth =
                5.0 * std::exp(-0.7 * xs[i]) + 1.0 + noise[i];
            r[i] = p[0] * std::exp(-p[1] * xs[i]) + p[2] - truth;
        }
        return r;
    };
    LeastSquaresOptions opts;
    opts.bounds.lower = {0.1, 0.01, 0.0};
    opts.bounds.upper = {50.0, 10.0, 10.0};
    const auto fit = levenberg_marquardt(residuals, {1.0, 0.1, 0.0}, opts);
    EXPECT_NEAR(fit.x[0], 5.0, 0.25);
    EXPECT_NEAR(fit.x[1], 0.7, 0.05);
    EXPECT_NEAR(fit.x[2], 1.0, 0.10);
}

} // namespace
} // namespace lognic::solver
