#include <cmath>
#include <gtest/gtest.h>

#include "lognic/solver/nelder_mead.hpp"

namespace lognic::solver {
namespace {

double
sphere(const Vector& x)
{
    double s = 0.0;
    for (double v : x)
        s += (v - 1.0) * (v - 1.0);
    return s;
}

double
rosenbrock(const Vector& x)
{
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
        const double a = x[i + 1] - x[i] * x[i];
        const double b = 1.0 - x[i];
        s += 100.0 * a * a + b * b;
    }
    return s;
}

TEST(NelderMead, MinimizesSphere)
{
    const auto res = nelder_mead(sphere, {5.0, -3.0, 0.0});
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.value, 1e-8);
    for (double v : res.x)
        EXPECT_NEAR(v, 1.0, 1e-3);
}

TEST(NelderMead, MinimizesRosenbrock2D)
{
    NelderMeadOptions opts;
    opts.max_iterations = 5000;
    const auto res = nelder_mead(rosenbrock, {-1.2, 1.0}, opts);
    EXPECT_NEAR(res.x[0], 1.0, 1e-3);
    EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(NelderMead, HandlesNonSmoothObjective)
{
    const auto res = nelder_mead(
        [](const Vector& x) { return std::abs(x[0] - 2.0) + std::abs(x[1]); },
        {10.0, -7.0});
    EXPECT_NEAR(res.x[0], 2.0, 1e-4);
    EXPECT_NEAR(res.x[1], 0.0, 1e-4);
}

TEST(NelderMead, RespectsBounds)
{
    NelderMeadOptions opts;
    opts.bounds.lower = {2.0, -10.0};
    opts.bounds.upper = {10.0, 10.0};
    const auto res = nelder_mead(sphere, {5.0, 5.0}, opts);
    // Unconstrained optimum (1,1) is outside; the bound binds at x0 = 2.
    EXPECT_NEAR(res.x[0], 2.0, 1e-6);
    EXPECT_NEAR(res.x[1], 1.0, 1e-4);
}

TEST(NelderMead, ReportsEvaluations)
{
    const auto res = nelder_mead(sphere, {3.0});
    EXPECT_GT(res.evaluations, 0u);
    EXPECT_TRUE(res.converged);
}

} // namespace
} // namespace lognic::solver
