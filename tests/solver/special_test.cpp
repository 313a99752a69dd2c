#include "lognic/solver/special.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <random>
#include <vector>

namespace lognic::solver {
namespace {

TEST(RegularizedGamma, ShapeOneIsExponentialCdf)
{
    for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
        EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12)
            << x;
    }
}

TEST(RegularizedGamma, BoundaryValues)
{
    EXPECT_DOUBLE_EQ(regularized_gamma_p(3.0, 0.0), 0.0);
    EXPECT_NEAR(regularized_gamma_p(3.0, 1e6), 1.0, 1e-12);
    EXPECT_NEAR(regularized_gamma_q(2.0, 0.0), 1.0, 1e-12);
}

TEST(RegularizedGamma, KnownValues)
{
    // P(0.5, x) = erf(sqrt(x)).
    for (double x : {0.25, 1.0, 4.0}) {
        EXPECT_NEAR(regularized_gamma_p(0.5, x), std::erf(std::sqrt(x)),
                    1e-10)
            << x;
    }
    // Chi-square with 4 dof at its mean: P(2, 2) = 1 - 3e^{-2}.
    EXPECT_NEAR(regularized_gamma_p(2.0, 2.0), 1.0 - 3.0 * std::exp(-2.0),
                1e-12);
}

TEST(RegularizedGamma, MonotoneInX)
{
    double prev = -1.0;
    for (double x = 0.0; x < 20.0; x += 0.5) {
        const double v = regularized_gamma_p(3.7, x);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(RegularizedGamma, SeriesAndFractionAgreeAtCrossover)
{
    // The implementation switches branches at x = a + 1; both must agree
    // in a neighbourhood of the seam.
    for (double a : {0.7, 2.0, 11.0}) {
        const double left = regularized_gamma_p(a, a + 1.0 - 1e-9);
        const double right = regularized_gamma_p(a, a + 1.0 + 1e-9);
        EXPECT_NEAR(left, right, 1e-9) << a;
    }
}

TEST(RegularizedGamma, UpperTailKeepsRelativePrecision)
{
    // Q(1, x) = e^-x. Taken as 1 - P, Q loses all its digits once e^-x
    // falls below the double spacing near 1.
    for (double x : {30.0, 40.0, 50.0, 200.0}) {
        const double expected = std::exp(-x);
        EXPECT_NEAR(regularized_gamma_q(1.0, x), expected, 1e-12 * expected)
            << x;
    }
}

TEST(RegularizedGamma, RejectsBadArguments)
{
    EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(regularized_gamma_p(-1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(regularized_gamma_p(1.0, -1.0), std::invalid_argument);
}

TEST(GammaQuantile, ExponentialQuantileExact)
{
    // k = 1, theta = m: quantile(p) = -m ln(1 - p), to 1e-12 relative from
    // nanosecond to second scales.
    for (double m : {1e-9, 1e-6, 1e-3, 1.0, 2.5}) {
        for (double p : {0.5, 0.99}) {
            const double expected = -m * std::log(1.0 - p);
            EXPECT_NEAR(gamma_quantile(1.0, m, p), expected, 1e-12 * expected)
                << "theta=" << m << " p=" << p;
        }
    }
}

TEST(GammaQuantile, RoundTripsThroughCdf)
{
    for (double k : {0.5, 2.0, 7.3}) {
        for (double p : {0.1, 0.5, 0.9, 0.99}) {
            const double q = gamma_quantile(k, 1.7, p);
            EXPECT_NEAR(regularized_gamma_p(k, q / 1.7), p, 1e-9)
                << "k=" << k << " p=" << p;
        }
    }
}

TEST(GammaQuantile, RejectsBadArguments)
{
    EXPECT_THROW(gamma_quantile(0.0, 1.0, 0.5), std::invalid_argument);
    EXPECT_THROW(gamma_quantile(1.0, 0.0, 0.5), std::invalid_argument);
    EXPECT_THROW(gamma_quantile(1.0, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(gamma_quantile(1.0, 1.0, 1.0), std::invalid_argument);
}

/// Survival P(T > t) of a shifted-gamma mixture, straight from
/// regularized_gamma_q.
double
reference_survival(const std::vector<ShiftedGamma>& mixture, double t)
{
    double total = 0.0;
    for (const ShiftedGamma& c : mixture)
        total += c.weight;
    double s = 0.0;
    for (const ShiftedGamma& c : mixture) {
        double above = 0.0;
        if (c.k == 0.0)
            above = t < c.shift ? 1.0 : 0.0;
        else if (t <= c.shift)
            above = 1.0;
        else
            above = regularized_gamma_q(c.k, (t - c.shift) / c.theta);
        s += c.weight / total * above;
    }
    return s;
}

/// Reference quantile: 200 bisection steps on reference_survival, from a
/// bracket doubled until it holds the answer.
double
reference_quantile(const std::vector<ShiftedGamma>& mixture, double p)
{
    double hi = 1e-12;
    while (reference_survival(mixture, hi) > 1.0 - p)
        hi *= 2.0;
    double lo = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        (reference_survival(mixture, mid) > 1.0 - p ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

TEST(GammaMixtureQuantile, AgreesWithReferenceBisection)
{
    std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto log_uniform = [&](double lo, double hi) {
        return lo * std::pow(hi / lo, unit(rng));
    };
    constexpr double kP = 0.99;
    int on_jump = 0;
    int continuous = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const auto count = static_cast<int>(1 + unit(rng) * 16);
        std::vector<ShiftedGamma> mixture;
        for (int i = 0; i < count; ++i) {
            const double k = log_uniform(1e-2, 1e3);
            const double theta = log_uniform(1e-9, 1.0);
            const double shift = unit(rng) * 10.0 * k * theta;
            const double weight = log_uniform(1e-2, 1e2);
            if (unit(rng) < 0.15)
                mixture.push_back({weight, shift + k * theta, 0.0, 0.0});
            else
                mixture.push_back({weight, shift, k, theta});
        }
        // Every fourth mixture gets a point mass of 1.5-5% beyond the
        // rest of the distribution, so the 1% quantile sits on its jump.
        if (trial % 4 == 0) {
            double total = 0.0;
            double far = 0.0;
            for (const ShiftedGamma& c : mixture) {
                total += c.weight;
                far = std::max(far, c.shift + 100.0 * (c.k + 1.0) * c.theta);
            }
            mixture.push_back(
                {total * (0.015 + 0.035 * unit(rng)), far, 0.0, 0.0});
        }

        const double q = shifted_gamma_mixture_quantile(mixture, kP);
        const double ref = reference_quantile(mixture, kP);
        ASSERT_NEAR(q, ref, 1e-9 * ref) << "trial " << trial;

        const double below = q * (1.0 - 1e-12);
        const double above = q * (1.0 + 1e-12);
        const bool jump = std::any_of(
            mixture.begin(), mixture.end(), [&](const ShiftedGamma& c) {
                return c.k == 0.0 && c.shift >= below && c.shift <= above;
            });
        if (jump) {
            ++on_jump;
            continue;
        }
        ++continuous;
        EXPECT_GE(reference_survival(mixture, below), 1.0 - kP)
            << "trial " << trial;
        EXPECT_LE(reference_survival(mixture, above), 1.0 - kP)
            << "trial " << trial;
    }
    // Both kinds of answer were exercised.
    EXPECT_GE(on_jump, 400);
    EXPECT_GE(continuous, 1000);
}

TEST(GammaMixtureQuantile, PointMassesAndZero)
{
    // A lone point mass is its own quantile; p of the mass at zero makes
    // the quantile zero.
    const std::vector<ShiftedGamma> point{{1.0, 3e-6, 0.0, 0.0}};
    EXPECT_EQ(shifted_gamma_mixture_quantile(point, 0.99), 3e-6);
    const std::vector<ShiftedGamma> at_zero{{99.5, 0.0, 0.0, 0.0},
                                            {0.5, 1.0, 2.0, 1.0}};
    EXPECT_EQ(shifted_gamma_mixture_quantile(at_zero, 0.99), 0.0);
}

TEST(GammaMixtureQuantile, RejectsBadArguments)
{
    const std::vector<ShiftedGamma> ok{{1.0, 0.0, 2.0, 1.0}};
    EXPECT_THROW(shifted_gamma_mixture_quantile(ok, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(shifted_gamma_mixture_quantile(ok, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(shifted_gamma_mixture_quantile({}, 0.5),
                 std::invalid_argument);
    for (const ShiftedGamma& bad :
         {ShiftedGamma{-1.0, 0.0, 2.0, 1.0}, ShiftedGamma{0.0, 0.0, 2.0, 1.0},
          ShiftedGamma{1.0, -1.0, 2.0, 1.0}, ShiftedGamma{1.0, 0.0, -1.0, 1.0},
          ShiftedGamma{1.0, 0.0, 2.0, 0.0},
          ShiftedGamma{1.0, 0.0, 2.0, std::nan("")}}) {
        const std::vector<ShiftedGamma> mixture{bad};
        EXPECT_THROW(shifted_gamma_mixture_quantile(mixture, 0.5),
                     std::invalid_argument);
    }
}

} // namespace
} // namespace lognic::solver
