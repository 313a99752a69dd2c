/**
 * @file
 * End-to-end calibration: DES-generate measurements from the true
 * LiquidIO CN2360 catalog, warp the catalog, and check the calibrator
 * recovers a catalog that generalizes to held-out workloads — the ISSUE's
 * round-trip acceptance criterion — with bit-identical reports across
 * thread counts and demonstrable cache effectiveness.
 */
#include <gtest/gtest.h>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/calib/calibrator.hpp"

namespace lognic::calib {
namespace {

struct RoundTrip {
    Dataset data;
    ParameterSpace space;
    solver::Vector x_true;
};

/// DES measurements from the true catalog + a 2.0x/0.5x-warped base.
RoundTrip
liquidio_round_trip()
{
    const auto sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kMd5, 16);

    GenerationSpec gen;
    gen.rates_gbps = {4.0, 8.0, 14.0, 20.0};
    gen.packet_sizes_bytes = {512.0, 1024.0};
    gen.root_seed = 11;
    gen.threads = 4;
    gen.sim.duration = 0.002;

    const core::TrafficProfile base = core::TrafficProfile::fixed(
        Bytes{1024}, devices::liquidio_line_rate());
    Dataset data = generate_dataset(sc.hw, sc.graph, base, gen);

    Candidate truth{sc.hw, {sc.graph}};
    ParameterSpace probe(truth);
    probe.add("ip.md5.fixed_cost_us");
    probe.add("ip.cores-md5.fixed_cost_us");
    const solver::Vector x_true = probe.initial();
    const Candidate warped =
        probe.apply({x_true[0] * 2.0, x_true[1] * 0.5});

    ParameterSpace space(warped);
    space.add("ip.md5.fixed_cost_us");
    space.add("ip.cores-md5.fixed_cost_us");
    return RoundTrip{std::move(data), std::move(space), x_true};
}

CalibratorOptions
round_trip_options()
{
    CalibratorOptions opts;
    opts.fit.starts = 2;
    opts.fit.seed = 11;
    opts.loss.throughput_weight = 1.0;
    opts.loss.latency_weight = 0.25;
    opts.holdout_fraction = 0.25;
    return opts;
}

TEST(CalibEndToEnd, RecoversLiquidIoCatalogWithinTenPercentOnHoldout)
{
    const RoundTrip rt = liquidio_round_trip();
    obs::MetricsRegistry metrics;
    const Calibrator calibrator(rt.space, rt.data, round_trip_options());
    const CalibrationReport report = calibrator.fit(&metrics);

    // The acceptance criterion: the fitted catalog predicts held-out
    // workloads within 10% mean relative throughput error.
    ASSERT_GT(report.holdout_error.observations, 0u);
    EXPECT_LT(report.holdout_error.throughput, 0.10)
        << render(report);
    EXPECT_LT(report.train_error.throughput, 0.10);
    EXPECT_LT(report.best_loss, report.initial_loss);

    // The warped MD5 engine cost (the parameter the data pins down
    // hardest) must come back near its true value.
    ASSERT_EQ(report.fitted.size(), 2u);
    EXPECT_NEAR(report.fitted[0] / rt.x_true[0], 1.0, 0.15);

    // Cache effectiveness is part of the contract, not incidental.
    EXPECT_GT(report.cache_hits, 0u);
    EXPECT_GT(report.model_solves, 0u);

    // The report carries a reloadable catalog.
    EXPECT_TRUE(report.fitted_hardware.contains("name"));

    // Convergence and goodness-of-fit reached the metrics registry.
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter_or_zero("calib.model_solves"),
              report.model_solves);
    EXPECT_EQ(snap.counter_or_zero("calib.cache.hits"), report.cache_hits);
    EXPECT_NEAR(snap.gauge_or("calib.loss.best"), report.best_loss, 1e-12);
    EXPECT_GT(snap.gauge_or("calib.convergence.evaluations"), 0.0);
    EXPECT_TRUE(snap.histograms.count("calib.residual.abs_rel_throughput_error"));
}

TEST(CalibEndToEnd, ReportJsonIsBitIdenticalAcrossThreadCounts)
{
    const RoundTrip rt = liquidio_round_trip();

    CalibratorOptions serial = round_trip_options();
    serial.fit.threads = 1;
    CalibratorOptions parallel = round_trip_options();
    parallel.fit.threads = 8;

    const CalibrationReport a =
        Calibrator(rt.space, rt.data, serial).fit();
    const CalibrationReport b =
        Calibrator(rt.space, rt.data, parallel).fit();
    EXPECT_EQ(to_json(a).dump(), to_json(b).dump());
}

TEST(CalibEndToEnd, KFoldCrossValidationReportsEveryFold)
{
    const RoundTrip rt = liquidio_round_trip();
    CalibratorOptions opts = round_trip_options();
    opts.holdout_fraction = 0.0;
    opts.k_folds = 3;

    const CalibrationReport report =
        Calibrator(rt.space, rt.data, opts).fit();
    ASSERT_EQ(report.folds.size(), 3u);
    for (const auto& fold : report.folds) {
        EXPECT_FALSE(fold.failed) << fold.message;
        EXPECT_LT(fold.validation_error, 0.25) << "fold " << fold.fold;
    }
}

TEST(CalibEndToEnd, CalibratorValidatesItsInputs)
{
    const RoundTrip rt = liquidio_round_trip();

    // Empty dataset.
    EXPECT_THROW(Calibrator(rt.space, Dataset{}, round_trip_options()),
                 std::invalid_argument);

    // Observation referencing a graph the candidate does not carry.
    Dataset bad = rt.data;
    Observation stray = rt.data.observation(0);
    stray.graph_index = 3;
    bad.add(stray);
    EXPECT_THROW(Calibrator(rt.space, bad, round_trip_options()),
                 std::invalid_argument);

    // k_folds == 1 is meaningless (use 0 to disable).
    CalibratorOptions one_fold = round_trip_options();
    one_fold.k_folds = 1;
    EXPECT_THROW(Calibrator(rt.space, rt.data, one_fold),
                 std::invalid_argument);

    // More folds than the training split holds (the dataset as a whole
    // would hold them): rejected before any start runs, not by the
    // cross-validation after the full fit.
    CalibratorOptions too_many_folds = round_trip_options();
    const std::size_t train =
        rt.data.split(too_many_folds.holdout_fraction,
                      too_many_folds.fit.seed)
            .first.size();
    ASSERT_LT(train, rt.data.size());
    too_many_folds.k_folds = train + 1;
    EXPECT_THROW(Calibrator(rt.space, rt.data, too_many_folds),
                 std::invalid_argument);
}

} // namespace
} // namespace lognic::calib
