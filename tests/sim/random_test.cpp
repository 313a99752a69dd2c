#include "lognic/sim/random.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace lognic::sim {
namespace {

// --- weighted_index -----------------------------------------------------------

TEST(WeightedIndex, ThrowsOnEmptyWeights)
{
    // Regression: std::discrete_distribution on an empty range is UB; the
    // weight table must reject it loudly.
    EXPECT_THROW((void)WeightTable({}), std::invalid_argument);
}

TEST(WeightedIndex, ThrowsOnAllZeroWeights)
{
    EXPECT_THROW((void)WeightTable({0.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(WeightedIndex, ThrowsOnNegativeOrNonFiniteWeights)
{
    EXPECT_THROW((void)WeightTable({1.0, -0.5}), std::invalid_argument);
    EXPECT_THROW(
        (void)WeightTable({1.0, std::numeric_limits<double>::infinity()}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)WeightTable({std::numeric_limits<double>::quiet_NaN()}),
        std::invalid_argument);
}

TEST(WeightedIndex, NeverReturnsZeroWeightBucket)
{
    Rng rng(7);
    const WeightTable w({0.0, 1.0, 0.0, 2.0, 0.0});
    for (int i = 0; i < 2000; ++i) {
        const std::size_t pick = rng.weighted_index(w);
        EXPECT_TRUE(pick == 1 || pick == 3) << "picked " << pick;
    }
}

TEST(WeightedIndex, TrailingZeroWeightsNeverSelected)
{
    // The FP-sliver fallback must land on the last *positive* bucket, not
    // the last bucket.
    Rng rng(11);
    const WeightTable w({0.0, 3.0, 0.0});
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(rng.weighted_index(w), 1u);
}

TEST(WeightedIndex, ConsumesExactlyOneUniformDraw)
{
    // The sampler draws one uniform from the shared engine per call, so a
    // same-seeded Rng stays stream-aligned with hand-rolled inversion.
    Rng a(123);
    Rng b(123);
    const WeightTable w({2.0, 1.0, 1.0});
    for (int i = 0; i < 100; ++i) {
        const double u = b.uniform() * 4.0;
        const std::size_t expect = u < 2.0 ? 0 : (u < 3.0 ? 1 : 2);
        EXPECT_EQ(a.weighted_index(w), expect);
    }
    // Streams stay synchronized afterwards.
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(WeightedIndex, TotalIsTheIndexOrderSum)
{
    // The walk scales its one uniform by the table's total, so the total
    // must be the sum a per-draw loop would form, bit for bit.
    const std::vector<double> v{0.1, 0.7, 0.2, 1e-17, 0.3};
    double sum = 0.0;
    for (double x : v)
        sum += x;
    EXPECT_EQ(WeightTable(v).total(), sum);
}

TEST(WeightedIndex, FrequenciesMatchWeights)
{
    Rng rng(42);
    const WeightTable w({1.0, 3.0});
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += rng.weighted_index(w) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

// --- service laws (mean and scv) ---------------------------------------------

TEST(WithScv, ZeroScvIsDeterministic)
{
    Rng rng(5);
    EXPECT_DOUBLE_EQ(rng.service_time(ServiceLaw(3.5, 0.0)), 3.5);
    EXPECT_DOUBLE_EQ(rng.service_time(ServiceLaw(3.5, -1.0)), 3.5);
    EXPECT_TRUE(ServiceLaw(3.5, 0.0).deterministic());
    // ...and consumes no engine state.
    Rng fresh(5);
    EXPECT_DOUBLE_EQ(rng.uniform(), fresh.uniform());
}

TEST(WithScv, ScvOneMatchesGammaShapeOne)
{
    // Regression for the exact `scv == 1.0` special case: every scv > 0
    // must route through the same gamma sampler so engine streams are
    // continuous across a sweep through the exponential point.
    Rng rng(99);
    std::mt19937_64 ref(99);
    const ServiceLaw law(4.0, 1.0);
    for (int i = 0; i < 50; ++i) {
        const double expect =
            std::gamma_distribution<double>(1.0, 4.0)(ref);
        EXPECT_DOUBLE_EQ(rng.service_time(law), expect);
    }
}

TEST(WithScv, LawDrawsEqualAPerDrawDistributionBitForBit)
{
    // A law reused across draws yields the bits a gamma distribution built
    // from (mean, scv) for each draw would: same parameters, and a fresh
    // distribution per draw keeps no saved normal between draws.
    for (const double scv : {0.05, 0.25, 0.5, 1.0 - 1e-9, 1.0, 1.7, 4.0}) {
        const double mean = 3.0e-6;
        const ServiceLaw law(mean, scv);
        Rng rng(1234);
        std::mt19937_64 ref(1234);
        for (int i = 0; i < 200; ++i) {
            const double shape = 1.0 / scv;
            const double expect =
                std::gamma_distribution<double>(shape, mean / shape)(ref);
            const double got = rng.service_time(law);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(expect))
                << "scv " << scv << " draw " << i;
        }
    }
}

TEST(WithScv, StreamContinuousAcrossExponentialPoint)
{
    // scv = 1 and scv = 1 - 1e-9 (both shape >= 1) must consume the same
    // amount of engine state and produce nearly identical samples; the old
    // exponential special case broke both properties.
    Rng a(2024);
    Rng b(2024);
    const ServiceLaw la(2.0, 1.0);
    const ServiceLaw lb(2.0, 1.0 - 1e-9);
    for (int i = 0; i < 50; ++i) {
        const double xa = a.service_time(la);
        const double xb = b.service_time(lb);
        EXPECT_NEAR(xa, xb, 1e-6 * (1.0 + xa));
    }
    // Identical residual engine state.
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(WithScv, SampleMomentsMatchRequested)
{
    Rng rng(7);
    const double mean = 5.0;
    const double scv = 0.25;
    const ServiceLaw law(mean, scv);
    double sum = 0.0, sumsq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.service_time(law);
        EXPECT_GT(x, 0.0);
        sum += x;
        sumsq += x * x;
    }
    const double m = sum / n;
    const double var = sumsq / n - m * m;
    EXPECT_NEAR(m, mean, 0.05 * mean);
    EXPECT_NEAR(var / (m * m), scv, 0.05);
}

TEST(WithScv, DeterministicForSeed)
{
    Rng a(31337);
    Rng b(31337);
    const ServiceLaw law(1.0, 0.5);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(a.service_time(law), b.service_time(law));
}

} // namespace
} // namespace lognic::sim
