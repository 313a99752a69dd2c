/**
 * @file
 * The generic fit engine (fit_residuals): recovery of a known optimum,
 * multi-start determinism across thread counts, cache effectiveness, and
 * failure semantics — plus CalibrationReport serialization and rendering
 * and the spec loader's validation.
 */
#include <cmath>
#include <gtest/gtest.h>

#include "lognic/calib/calibrator.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/io/serialize.hpp"
#include "../test_helpers.hpp"

namespace lognic::calib {
namespace {

/// Residuals whose least-squares optimum is (2, 0.5) inside the box.
FitProblem
quadratic_problem()
{
    FitProblem p;
    p.residuals = [](const solver::Vector& x) {
        return solver::Vector{x[0] - 2.0, 3.0 * (x[1] - 0.5)};
    };
    p.x0 = {0.5, 0.1};
    p.bounds.lower = {0.0, 0.0};
    p.bounds.upper = {10.0, 10.0};
    return p;
}

TEST(CalibFitEngine, RecoversTheQuadraticOptimum)
{
    FitOptions opts;
    opts.starts = 2;
    const FitOutcome fit = fit_residuals(quadratic_problem(), opts);
    EXPECT_NEAR(fit.x[0], 2.0, 1e-2);
    EXPECT_NEAR(fit.x[1], 0.5, 1e-2);
    EXPECT_LT(fit.loss, 1e-3);
    ASSERT_EQ(fit.starts.size(), 2u);
    EXPECT_EQ(fit.residuals.size(), 2u);
}

TEST(CalibFitEngine, CacheServesRepeatEvaluations)
{
    FitOptions opts;
    opts.starts = 3;
    const FitOutcome fit = fit_residuals(quadratic_problem(), opts);
    // Priming at x0 plus the incumbent re-read guarantee hits; the ISSUE
    // acceptance criterion is that memoization demonstrably reduces model
    // solves.
    EXPECT_GT(fit.cache_hits(), 0u);
    EXPECT_GT(fit.model_solves(), 0u);
    EXPECT_EQ(fit.model_solves(), fit.cache_misses());
    for (const auto& s : fit.starts) {
        EXPECT_GE(s.cache_hits, 1u) << "start " << s.index;
        EXPECT_LT(s.final_loss, s.initial_loss + 1e-12);
    }
    // The winning trace is monotone non-increasing.
    ASSERT_FALSE(fit.convergence.empty());
    for (std::size_t i = 1; i < fit.convergence.size(); ++i)
        EXPECT_LE(fit.convergence[i], fit.convergence[i - 1]);
}

TEST(CalibFitEngine, BitIdenticalAcrossThreadCounts)
{
    FitOptions serial;
    serial.starts = 6;
    serial.threads = 1;
    FitOptions parallel = serial;
    parallel.threads = 8;

    const FitOutcome a = fit_residuals(quadratic_problem(), serial);
    const FitOutcome b = fit_residuals(quadratic_problem(), parallel);

    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i)
        EXPECT_EQ(a.x[i], b.x[i]); // bit-identical, not merely close
    EXPECT_EQ(a.loss, b.loss);
    EXPECT_EQ(a.convergence, b.convergence);
    ASSERT_EQ(a.starts.size(), b.starts.size());
    for (std::size_t i = 0; i < a.starts.size(); ++i) {
        EXPECT_EQ(a.starts[i].seed, b.starts[i].seed);
        EXPECT_EQ(a.starts[i].final_loss, b.starts[i].final_loss);
        EXPECT_EQ(a.starts[i].cache_hits, b.starts[i].cache_hits);
        EXPECT_EQ(a.starts[i].model_solves, b.starts[i].model_solves);
    }
}

TEST(CalibFitEngine, ValidatesItsInputs)
{
    FitOptions opts;
    FitProblem empty;
    EXPECT_THROW(fit_residuals(empty, opts), std::invalid_argument);

    FitProblem ok = quadratic_problem();
    opts.starts = 0;
    EXPECT_THROW(fit_residuals(ok, opts), std::invalid_argument);
}

TEST(CalibFitEngine, SurvivesPartialStartFailures)
{
    // Starts away from x0 land in the poisoned region and throw; start 0
    // (at x0) succeeds. run_guarded semantics: the fit still wins.
    FitProblem p = quadratic_problem();
    p.residuals = [](const solver::Vector& x) {
        if (x[0] > 4.0)
            throw std::runtime_error("poisoned region");
        return solver::Vector{x[0] - 2.0, 3.0 * (x[1] - 0.5)};
    };
    FitOptions opts;
    opts.starts = 8;
    const FitOutcome fit = fit_residuals(p, opts);
    EXPECT_NEAR(fit.x[0], 2.0, 1e-3);
    std::size_t failed = 0;
    for (const auto& s : fit.starts) {
        if (s.failed) {
            ++failed;
            EXPECT_NE(s.message.find("poisoned"), std::string::npos);
        }
    }
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, fit.starts.size());
}

TEST(CalibFitEngine, ThrowsWhenEveryStartFails)
{
    FitProblem p = quadratic_problem();
    p.residuals = [](const solver::Vector&) -> solver::Vector {
        throw std::runtime_error("device unreachable");
    };
    FitOptions opts;
    opts.starts = 3;
    EXPECT_THROW(fit_residuals(p, opts), std::runtime_error);
}

TEST(CalibReport, JsonRoundTripPreservesEveryField)
{
    CalibrationReport r;
    r.device = "unit-nic";
    r.seed = 0xdeadbeefULL;
    r.starts = 2;
    r.parameter_names = {"a", "b"};
    r.initial = {1.0, 2.0};
    r.fitted = {1.5, 2.5};
    r.lower = {0.0, 0.0};
    r.upper = {10.0, 10.0};
    r.initial_loss = 4.0;
    r.best_loss = 0.25;
    r.converged = true;
    r.message = "gradient below tolerance";
    r.train_error = {7, 0.02, 0.04, 0.06};
    r.holdout_error = {3, 0.03, 0.05, 0.08};
    r.start_outcomes.push_back(
        {0, 42, 4.0, 0.25, true, false, "ok", 11, 30, 5, 30});
    r.folds.push_back({0, 0.02, 0.05, false, ""});
    r.folds.push_back({1, 0.021, 0.2, true, "fold exploded"});
    ResidualRecord rec;
    rec.label = "p0";
    rec.holdout = true;
    rec.observed_throughput_gbps = 5.0;
    rec.predicted_throughput_gbps = 5.2;
    rec.throughput_rel_error = 0.04;
    rec.observed_latency_us = 10.0;
    rec.predicted_latency_us = 9.0;
    rec.latency_rel_error = -0.1;
    r.residuals.push_back(rec);
    r.warnings.push_back({"b", "insensitive", "norm tiny", 1e-7});
    r.cache_hits = 5;
    r.cache_misses = 30;
    r.model_solves = 30;
    r.convergence = {4.0, 1.0, 0.25};
    r.fitted_hardware.set("name", std::string("unit-nic"));

    const CalibrationReport back = report_from_json(to_json(r));
    // Byte-identical re-serialization is the strongest round-trip check
    // (io::Json objects dump deterministically).
    EXPECT_EQ(to_json(back).dump(), to_json(r).dump());
    EXPECT_EQ(back.seed, 0xdeadbeefULL);
    EXPECT_EQ(back.parameter_names, r.parameter_names);
    ASSERT_EQ(back.folds.size(), 2u);
    EXPECT_TRUE(back.folds[1].failed);
    ASSERT_EQ(back.residuals.size(), 1u);
    EXPECT_TRUE(back.residuals[0].holdout);
    ASSERT_EQ(back.warnings.size(), 1u);
    EXPECT_EQ(back.warnings[0].kind, "insensitive");
}

TEST(CalibReport, RejectsInconsistentDocuments)
{
    CalibrationReport r;
    r.device = "unit-nic";
    r.parameter_names = {"a"};
    r.initial = {1.0};
    r.fitted = {1.0};
    io::Json j = to_json(r);
    j.set("fitted", io::Json{io::JsonArray{}}); // size mismatch vs names
    EXPECT_THROW(report_from_json(j), std::runtime_error);
}

TEST(CalibReport, RejectsFractionalAndNegativeCounts)
{
    CalibrationReport r;
    r.device = "unit-nic";
    r.parameter_names = {"a"};
    r.initial = {1.0};
    r.fitted = {1.0};
    io::Json j = to_json(r);
    j.set("starts", 1.5);
    EXPECT_THROW(report_from_json(j), std::runtime_error);
    j = to_json(r);
    j.set("seed", -5.0);
    EXPECT_THROW(report_from_json(j), std::runtime_error);
}

TEST(CalibSpec, RejectsFractionalAndNegativeCounts)
{
    // Parsing fails before any DES data synthesis runs.
    const io::Scenario base{test::small_nic(),
                            test::single_stage_graph(test::small_nic()),
                            test::mtu_traffic(5.0)};
    const io::Json doc = io::Json::parse(sample_calib_spec(base));
    const auto with = [&doc](const std::string& key, double value) {
        io::JsonObject c = doc.at("calib").as_object();
        c[key] = io::Json(value);
        io::JsonObject root = doc.as_object();
        root["calib"] = io::Json(std::move(c));
        return io::Json(std::move(root));
    };
    EXPECT_THROW(calib_spec_from_json(with("threads", 2.7)),
                 std::runtime_error);
    EXPECT_THROW(calib_spec_from_json(with("seed", -5.0)),
                 std::runtime_error);
    EXPECT_THROW(calib_spec_from_json(with("starts", -1.0)),
                 std::runtime_error);
}

TEST(CalibSpec, BackendMayOnlyNameLeastSquares)
{
    const io::Scenario base{test::small_nic(),
                            test::single_stage_graph(test::small_nic()),
                            test::mtu_traffic(5.0)};
    const io::Json doc = io::Json::parse(sample_calib_spec(base));
    ASSERT_FALSE(doc.at("calib").contains("backend"));
    const auto with_backend = [&doc](const std::string& name) {
        io::JsonObject c = doc.at("calib").as_object();
        c["backend"] = io::Json(name);
        io::JsonObject root = doc.as_object();
        root["calib"] = io::Json(std::move(c));
        return io::Json(std::move(root));
    };

    // Loads: no key (what the sample spec writes) and the one engine's
    // name (what older sample specs carry).
    EXPECT_NO_THROW(calib_spec_from_json(doc));
    EXPECT_NO_THROW(calib_spec_from_json(with_backend("least_squares")));

    // Any other name fails, naming the key, instead of running LM anyway.
    for (const char* name : {"nelder_mead", "annealing", "bogus"}) {
        try {
            calib_spec_from_json(with_backend(name));
            ADD_FAILURE() << "backend '" << name << "' loaded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("calib.backend"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CalibReport, RenderMentionsTheEssentials)
{
    CalibrationReport r;
    r.device = "render-nic";
    r.starts = 1;
    r.parameter_names = {"memory_gbps"};
    r.initial = {50.0};
    r.fitted = {41.0};
    r.lower = {10.0};
    r.upper = {100.0};
    r.initial_loss = 2.0;
    r.best_loss = 0.1;
    r.converged = true;
    r.train_error = {4, 0.05, 0.02, 0.09};
    r.warnings.push_back({"memory_gbps", "at_bound", "on the face", 41.0});

    const std::string text = render(r);
    EXPECT_NE(text.find("render-nic"), std::string::npos);
    EXPECT_NE(text.find("memory_gbps"), std::string::npos);
    EXPECT_NE(text.find("least_squares"), std::string::npos);
    EXPECT_NE(text.find("at_bound"), std::string::npos);
}

} // namespace
} // namespace lognic::calib
