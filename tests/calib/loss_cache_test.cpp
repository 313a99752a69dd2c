/**
 * @file
 * Loss composition (weights, relative/absolute residuals, pseudo-Huber)
 * and the evaluation memo the calibrator answers repeated model solves
 * from.
 */
#include <cmath>
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/calib/cache.hpp"
#include "lognic/calib/loss.hpp"

namespace lognic::calib {
namespace {

Observation
observation(double thpt_gbps, double mean_us, double p99_us)
{
    Observation obs;
    obs.label = "o";
    obs.traffic = core::TrafficProfile::fixed(Bytes{512},
                                              Bandwidth::from_gbps(5.0));
    obs.throughput = Bandwidth::from_gbps(thpt_gbps);
    obs.mean_latency = Seconds::from_micros(mean_us);
    obs.p99_latency = Seconds::from_micros(p99_us);
    return obs;
}

TEST(CalibLoss, HuberizeIsIdentityWhenDisabled)
{
    EXPECT_DOUBLE_EQ(huberize(0.37, 0.0), 0.37);
    EXPECT_DOUBLE_EQ(huberize(-2.5, 0.0), -2.5);
}

TEST(CalibLoss, HuberizeCompressesOutliersButKeepsSignAndCore)
{
    const double delta = 1.0;
    // Small residuals pass nearly unchanged...
    EXPECT_NEAR(huberize(0.01, delta), 0.01, 1e-5);
    // ...large ones are compressed below their input...
    EXPECT_LT(huberize(100.0, delta), 100.0);
    EXPECT_GT(huberize(100.0, delta), 0.0);
    // ...sign is preserved and the transform is odd.
    EXPECT_DOUBLE_EQ(huberize(-3.0, delta), -huberize(3.0, delta));
    // Monotone in |r|.
    EXPECT_LT(huberize(1.0, delta), huberize(2.0, delta));
}

TEST(CalibLoss, ComponentsFollowActiveWeights)
{
    LossOptions loss;
    EXPECT_EQ(components_per_observation(loss), 2u); // thpt + mean lat
    loss.p99_weight = 0.5;
    EXPECT_EQ(components_per_observation(loss), 3u);
    loss.latency_weight = 0.0;
    loss.throughput_weight = 0.0;
    EXPECT_EQ(components_per_observation(loss), 1u);
}

TEST(CalibLoss, JsonRoundTripAndValidation)
{
    LossOptions loss;
    loss.throughput_weight = 2.0;
    loss.latency_weight = 0.5;
    loss.p99_weight = 0.25;
    loss.kind = ResidualKind::kAbsolute;
    loss.huber_delta = 1.5;
    const LossOptions back = loss_from_json(to_json(loss));
    EXPECT_DOUBLE_EQ(back.throughput_weight, 2.0);
    EXPECT_DOUBLE_EQ(back.latency_weight, 0.5);
    EXPECT_DOUBLE_EQ(back.p99_weight, 0.25);
    EXPECT_EQ(back.kind, ResidualKind::kAbsolute);
    EXPECT_DOUBLE_EQ(back.huber_delta, 1.5);

    io::Json bad = to_json(loss);
    bad.set("throughput_weight", -1.0);
    EXPECT_THROW(loss_from_json(bad), std::runtime_error);

    io::Json inert = to_json(loss);
    inert.set("throughput_weight", 0.0);
    inert.set("latency_weight", 0.0);
    inert.set("p99_weight", 0.0);
    EXPECT_THROW(loss_from_json(inert), std::runtime_error);

    EXPECT_THROW(residual_kind_from_string("nope"), std::invalid_argument);
    EXPECT_EQ(residual_kind_from_string("relative"),
              ResidualKind::kRelative);
}

TEST(CalibLoss, AppendResidualsWeightsComponentsAndObservations)
{
    Prediction pred;
    pred.throughput = Bandwidth::from_gbps(6.0);
    pred.mean_latency = Seconds::from_micros(20.0);

    Observation obs = observation(5.0, 10.0, 0.0);

    LossOptions loss;
    loss.throughput_weight = 1.0;
    loss.latency_weight = 0.5;

    solver::Vector r;
    append_residuals(loss, obs, pred, r);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_NEAR(r[0], (6.0 - 5.0) / 5.0, 1e-12);
    EXPECT_NEAR(r[1], 0.5 * (20.0 - 10.0) / 10.0, 1e-12);

    // Observation weights enter as sqrt(w), so the squared loss scales
    // linearly with the weight.
    obs.weight = 4.0;
    solver::Vector rw;
    append_residuals(loss, obs, pred, rw);
    EXPECT_NEAR(rw[0], 2.0 * r[0], 1e-12);

    // Absolute residuals use canonical units (Gbps and microseconds).
    LossOptions abs = loss;
    abs.kind = ResidualKind::kAbsolute;
    obs.weight = 1.0;
    solver::Vector ra;
    append_residuals(abs, obs, pred, ra);
    EXPECT_NEAR(ra[0], 1.0, 1e-9);
    EXPECT_NEAR(ra[1], 0.5 * 10.0, 1e-9);
}

TEST(CalibLoss, PredictRunsTheAnalyticalModel)
{
    const auto sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 4);
    const Candidate cand{sc.hw, {sc.graph}};
    const Observation obs = observation(2.0, 10.0, 0.0);
    const Prediction pred = predict(cand, obs);
    EXPECT_GT(pred.throughput.gbps(), 0.0);
    EXPECT_LE(pred.throughput.gbps(), 5.0 + 1e-9); // capped by offered
    EXPECT_GT(pred.mean_latency.seconds(), 0.0);
}

TEST(CalibLoss, TotalLossIsHalfSquaredNorm)
{
    EXPECT_DOUBLE_EQ(total_loss({3.0, 4.0}), 0.5 * 25.0);
    EXPECT_DOUBLE_EQ(total_loss({}), 0.0);
}

TEST(CalibCache, KeyIsBitExact)
{
    std::size_t calls = 0;
    CachedResiduals cached([&calls](const solver::Vector& x) {
        ++calls;
        return x;
    });
    (void)cached({1.0});
    (void)cached({1.0 + 1e-15}); // a neighbor, not the same point: a miss
    (void)cached({1.0});         // the exact point again: a hit
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(cached.requests() - cached.underlying_evaluations(), 1u);
    EXPECT_NE(cache_key({0.0}), cache_key({-0.0})); // distinct bit patterns
}

TEST(CalibCache, CachedResidualsCountsModelSolvesOnce)
{
    std::size_t calls = 0;
    CachedResiduals cached([&calls](const solver::Vector& x) {
        ++calls;
        return solver::Vector{x[0] - 1.0};
    });

    const auto a = cached({3.0});
    const auto b = cached({3.0});
    const auto c = cached({4.0});
    EXPECT_EQ(a, b);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(cached.underlying_evaluations(), 2u); // the misses
    EXPECT_EQ(cached.requests(), 3u);
    EXPECT_EQ(c.size(), 1u);

    // Convergence trace is the running best and only improves.
    ASSERT_FALSE(cached.convergence().empty());
    for (std::size_t i = 1; i < cached.convergence().size(); ++i)
        EXPECT_LE(cached.convergence()[i], cached.convergence()[i - 1]);
}

TEST(CalibCache, KeepsEveryPointItEvaluated)
{
    // More distinct points than the 4,096 entries a start once kept: the
    // second pass over all of them is answered from the memo, bit for bit.
    constexpr std::size_t kPoints = 5000;
    std::size_t calls = 0;
    CachedResiduals cached([&calls](const solver::Vector& x) {
        ++calls;
        return solver::Vector{x[0] * x[0], -x[0]};
    });
    std::vector<solver::Vector> first(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i)
        first[i] = cached({0.5 + static_cast<double>(i)});
    for (std::size_t i = 0; i < kPoints; ++i)
        EXPECT_EQ(cached({0.5 + static_cast<double>(i)}), first[i]) << i;
    EXPECT_EQ(calls, kPoints);
    EXPECT_EQ(cached.underlying_evaluations(), kPoints);
    EXPECT_EQ(cached.requests(), 2 * kPoints);
}

TEST(CalibCache, ThrowingEvaluationCountsAsAMiss)
{
    // A request that reaches the residual function is a miss (and a model
    // solve) even when the function throws, so hits are exactly the
    // requests the memo answered.
    CachedResiduals cached([](const solver::Vector& x) {
        if (x[0] < 0.0)
            throw std::runtime_error("outside the model's domain");
        return x;
    });
    (void)cached({1.0});
    (void)cached({1.0});
    EXPECT_THROW((void)cached({-1.0}), std::runtime_error);
    EXPECT_EQ(cached.requests(), 3u);
    EXPECT_EQ(cached.underlying_evaluations(), 2u);
    EXPECT_EQ(cached.requests() - cached.underlying_evaluations(), 1u);
}

} // namespace
} // namespace lognic::calib
