#include "lognic/calib/calibrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "lognic/io/serialize.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/runner/thread_pool.hpp"
#include "lognic/solver/least_squares.hpp"

namespace lognic::calib {

std::uint64_t
FitOutcome::cache_hits() const
{
    std::uint64_t n = 0;
    for (const auto& s : starts)
        n += s.cache_hits;
    return n;
}

std::uint64_t
FitOutcome::cache_misses() const
{
    std::uint64_t n = 0;
    for (const auto& s : starts)
        n += s.cache_misses;
    return n;
}

std::uint64_t
FitOutcome::model_solves() const
{
    std::uint64_t n = 0;
    for (const auto& s : starts)
        n += s.model_solves;
    return n;
}

namespace {

/// Uniform double in [0, 1) from (seed, index), platform-stable.
double
uniform01(std::uint64_t seed, std::uint64_t index)
{
    // 53 mantissa bits of a derived 64-bit value.
    return static_cast<double>(runner::derive_seed(seed, index) >> 11)
        * (1.0 / 9007199254740992.0); // 2^53
}

/// Per-dimension magnitude floor for FD steps and random-start spreads.
solver::Vector
effective_scales(const FitProblem& problem)
{
    const std::size_t n = problem.x0.size();
    if (!problem.scales.empty()) {
        if (problem.scales.size() != n)
            throw std::invalid_argument(
                "fit_residuals: scales/x0 size mismatch");
        return problem.scales;
    }
    solver::Vector s(n);
    for (std::size_t i = 0; i < n; ++i) {
        double span = 0.0;
        if (problem.bounds.lower.size() == n
            && problem.bounds.upper.size() == n
            && std::isfinite(problem.bounds.lower[i])
            && std::isfinite(problem.bounds.upper[i]))
            span = (problem.bounds.upper[i] - problem.bounds.lower[i])
                / 1000.0;
        s[i] = std::max({std::abs(problem.x0[i]), span, 1e-8});
    }
    return s;
}

/// Starting point for multi-start index @p k (0 = the caller's x0).
solver::Vector
start_point(const FitProblem& problem, const solver::Vector& scales,
            std::size_t k, std::uint64_t start_seed)
{
    if (k == 0)
        return problem.x0;
    const std::size_t n = problem.x0.size();
    solver::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = uniform01(start_seed, i);
        const bool boxed = problem.bounds.lower.size() == n
            && problem.bounds.upper.size() == n
            && std::isfinite(problem.bounds.lower[i])
            && std::isfinite(problem.bounds.upper[i]);
        if (boxed) {
            x[i] = problem.bounds.lower[i]
                + u * (problem.bounds.upper[i] - problem.bounds.lower[i]);
        } else {
            // Unbounded dimension: spread around x0 by its scale.
            x[i] = problem.x0[i] + (2.0 * u - 1.0) * 2.0 * scales[i];
        }
    }
    return problem.bounds.clamp(std::move(x));
}

/// Run one multi-start attempt (owns its cache; pure in its index).
StartRecord
run_start(const FitProblem& problem, const FitOptions& options,
          const solver::Vector& scales, std::size_t k)
{
    StartRecord out;
    out.outcome.index = k;
    out.outcome.seed = runner::derive_seed(options.seed, k);

    CachedResiduals cached(problem.residuals, options.cache_capacity);
    const auto eval = [&cached](const solver::Vector& x) {
        return cached(x);
    };

    try {
        const solver::Vector x0 =
            start_point(problem, scales, k, out.outcome.seed);
        // Prime the cache with the starting point: the solver's own first
        // evaluation of x0 is then a guaranteed hit, and initial_loss is
        // recorded even if the solve later throws.
        out.outcome.initial_loss = total_loss(cached(x0));

        solver::LeastSquaresOptions ls;
        ls.max_iterations = options.max_iterations;
        ls.bounds = problem.bounds;
        ls.scales = scales;
        solver::LeastSquaresResult fit =
            solver::levenberg_marquardt(eval, x0, ls);
        out.outcome.converged = fit.converged;
        out.outcome.message = fit.message;
        out.outcome.iterations = fit.iterations;

        // Re-read the incumbent through the cache: a hit (the solver
        // evaluated it), and it pins the reported loss to the reported x.
        out.residuals = cached(fit.x);
        out.outcome.final_loss = total_loss(out.residuals);
        out.x = std::move(fit.x);
    } catch (const std::exception& e) {
        out.outcome.failed = true;
        out.outcome.message = e.what();
        out.outcome.final_loss =
            std::numeric_limits<double>::infinity();
    }
    out.outcome.model_solves = cached.underlying_evaluations();
    out.outcome.cache_hits = cached.stats().hits;
    out.outcome.cache_misses = cached.stats().misses;
    out.convergence = cached.convergence();
    return out;
}

} // namespace

FitOutcome
fit_residuals(const FitProblem& problem, const FitOptions& options)
{
    if (!problem.residuals)
        throw std::invalid_argument("fit_residuals: missing residual fn");
    if (problem.x0.empty())
        throw std::invalid_argument("fit_residuals: empty x0");
    if (options.starts == 0)
        throw std::invalid_argument("fit_residuals: zero starts");

    const solver::Vector scales = effective_scales(problem);

    // Fan the starts across the runner. Results land keyed by index and
    // every start owns its state, so the outcome is independent of the
    // thread count (run_guarded semantics: a throwing start becomes a
    // failed record, not a lost calibration).
    std::vector<StartRecord> results(options.starts);
    runner::parallel_for(options.starts, options.threads,
                         [&](std::size_t k) {
                             if (options.resume_lookup
                                 && options.resume_lookup(k, results[k]))
                                 return; // journaled: replay verbatim
                             results[k] =
                                 run_start(problem, options, scales, k);
                             if (options.on_start_complete)
                                 options.on_start_complete(k, results[k]);
                         });

    FitOutcome outcome;
    outcome.starts.reserve(results.size());
    for (auto& r : results)
        outcome.starts.push_back(r.outcome);

    // Winner: lowest loss among non-failed starts, ties to the lower
    // index (the std::min_element scan is left-biased).
    const StartRecord* best = nullptr;
    for (const auto& r : results) {
        if (r.outcome.failed)
            continue;
        if (best == nullptr
            || r.outcome.final_loss < best->outcome.final_loss)
            best = &r;
    }
    if (best == nullptr) {
        throw std::runtime_error(
            "fit_residuals: every start failed; first error: "
            + results.front().outcome.message);
    }

    outcome.x = best->x;
    outcome.loss = best->outcome.final_loss;
    outcome.converged = best->outcome.converged;
    outcome.message = best->outcome.message;
    outcome.convergence = best->convergence;
    outcome.residuals = best->residuals;
    return outcome;
}

// --- the model-aware calibrator -----------------------------------------------

namespace {

/// Observed-vs-predicted records for every observation in @p data.
std::vector<ResidualRecord>
residual_records(const Candidate& fitted, const Dataset& data,
                 bool holdout)
{
    std::vector<ResidualRecord> records;
    records.reserve(data.size());
    for (const auto& obs : data.observations()) {
        const Prediction pred = predict(fitted, obs);
        ResidualRecord rec;
        rec.label = obs.label;
        rec.holdout = holdout;
        rec.observed_throughput_gbps = obs.throughput.gbps();
        rec.predicted_throughput_gbps = pred.throughput.gbps();
        rec.throughput_rel_error = obs.throughput.gbps() != 0.0
            ? (pred.throughput.gbps() - obs.throughput.gbps())
                / obs.throughput.gbps()
            : 0.0;
        rec.observed_latency_us = obs.mean_latency.micros();
        rec.predicted_latency_us = pred.mean_latency.micros();
        rec.latency_rel_error = obs.mean_latency.micros() != 0.0
            ? (pred.mean_latency.micros() - obs.mean_latency.micros())
                / obs.mean_latency.micros()
            : 0.0;
        records.push_back(rec);
    }
    return records;
}

FitError
fit_error(const std::vector<ResidualRecord>& records)
{
    FitError err;
    err.observations = records.size();
    if (records.empty())
        return err;
    for (const auto& rec : records) {
        const double t = std::abs(rec.throughput_rel_error);
        err.throughput += t;
        err.latency += std::abs(rec.latency_rel_error);
        err.worst_throughput = std::max(err.worst_throughput, t);
    }
    err.throughput /= static_cast<double>(records.size());
    err.latency /= static_cast<double>(records.size());
    return err;
}

/// Mean absolute relative throughput error of @p fitted on @p data.
double
mean_throughput_error(const Candidate& fitted, const Dataset& data)
{
    return fit_error(residual_records(fitted, data, false)).throughput;
}

/**
 * Identifiability analysis at the fitted point: a scale-aware FD Jacobian
 * of the training residuals, then flag (a) columns with negligible norm
 * (the data does not move with the parameter), (b) column pairs that are
 * nearly parallel (only their combination is constrained), and (c)
 * parameters the fit pushed onto a bound face.
 */
std::vector<IdentifiabilityWarning>
identifiability(const ParameterSpace& space, const solver::VectorFn& fn,
                const solver::Vector& x, const solver::Vector& residuals)
{
    std::vector<IdentifiabilityWarning> warnings;
    const std::size_t n = x.size();
    const std::size_t m = residuals.size();
    const solver::Vector scales = space.scales();
    const solver::Bounds bounds = space.bounds();

    // Jacobian columns, one forward-difference probe per parameter.
    std::vector<solver::Vector> cols(n);
    std::vector<double> norms(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        const double h =
            1e-6 * std::max(std::abs(x[j]), scales[j]);
        solver::Vector xp = x;
        xp[j] += h;
        const solver::Vector rp = fn(xp);
        cols[j].resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            cols[j][i] = (rp[i] - residuals[i]) / h;
            norms[j] += cols[j][i] * cols[j][i];
        }
        norms[j] = std::sqrt(norms[j]);
    }
    const double max_norm =
        *std::max_element(norms.begin(), norms.end());

    for (std::size_t j = 0; j < n; ++j) {
        const auto& p = space.parameter(j);
        // Sensitivity is scale-free already (the probe is relative), so
        // compare columns against the strongest one.
        if (max_norm > 0.0 && norms[j] < 1e-4 * max_norm) {
            IdentifiabilityWarning w;
            w.parameter = p.name;
            w.kind = "insensitive";
            w.metric = max_norm > 0.0 ? norms[j] / max_norm : 0.0;
            w.detail = "residuals barely respond to this parameter "
                       "(sensitivity "
                + std::to_string(w.metric)
                + " of the strongest column); the data cannot pin it "
                  "down";
            warnings.push_back(std::move(w));
        }
        const double span = bounds.upper[j] - bounds.lower[j];
        const double slack = std::min(x[j] - bounds.lower[j],
                                      bounds.upper[j] - x[j]);
        if (span > 0.0 && slack < 1e-6 * span) {
            IdentifiabilityWarning w;
            w.parameter = p.name;
            w.kind = "at_bound";
            w.metric = x[j];
            w.detail =
                "fit pushed the parameter onto a bound face; widen the "
                "box or drop the parameter";
            warnings.push_back(std::move(w));
        }
    }

    // Pairwise near-collinearity among the informative columns.
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            if (norms[a] <= 0.0 || norms[b] <= 0.0)
                continue;
            if (max_norm > 0.0
                && (norms[a] < 1e-4 * max_norm
                    || norms[b] < 1e-4 * max_norm))
                continue; // already flagged insensitive
            double dot = 0.0;
            for (std::size_t i = 0; i < m; ++i)
                dot += cols[a][i] * cols[b][i];
            const double cosine =
                std::abs(dot) / (norms[a] * norms[b]);
            if (cosine > 0.999) {
                IdentifiabilityWarning w;
                w.parameter = space.parameter(a).name;
                w.kind = "collinear";
                w.metric = cosine;
                w.detail = "nearly indistinguishable from '"
                    + space.parameter(b).name + "' (|cosine| "
                    + std::to_string(cosine)
                    + "); only their combination is constrained";
                warnings.push_back(std::move(w));
            }
        }
    }
    return warnings;
}

} // namespace

Calibrator::Calibrator(ParameterSpace space, Dataset data,
                       CalibratorOptions opts)
    : space_(std::move(space)), data_(std::move(data)),
      opts_(std::move(opts))
{
    if (space_.size() == 0)
        throw std::invalid_argument("Calibrator: empty parameter space");
    if (data_.empty())
        throw std::invalid_argument("Calibrator: empty dataset");
    for (const auto& obs : data_.observations()) {
        if (obs.graph_index >= space_.base().graphs.size())
            throw std::invalid_argument(
                "Calibrator: observation '" + obs.label
                + "' references graph "
                + std::to_string(obs.graph_index) + " but the candidate "
                + "has " + std::to_string(space_.base().graphs.size()));
    }
    if (opts_.k_folds == 1)
        throw std::invalid_argument(
            "Calibrator: k_folds must be 0 (off) or >= 2");
    // Split here, not in fit(): cross-validation deals the training split
    // into k_folds folds, and a count it cannot hold must fail before any
    // start runs (or a supervised run publishes a generation).
    std::tie(train_, holdout_) =
        data_.split(opts_.holdout_fraction, opts_.fit.seed);
    if (opts_.k_folds > train_.size())
        throw std::invalid_argument(
            "Calibrator: k_folds (" + std::to_string(opts_.k_folds)
            + ") exceeds the " + std::to_string(train_.size())
            + " training observations");
}

CalibrationReport
Calibrator::fit(obs::MetricsRegistry* metrics) const
{
    FitProblem problem;
    problem.residuals = make_residual_fn(space_, train_, opts_.loss);
    problem.x0 = space_.initial();
    problem.bounds = space_.bounds();
    problem.scales = space_.scales();

    const FitOutcome outcome = fit_residuals(problem, opts_.fit);
    const Candidate fitted = space_.apply(outcome.x);

    CalibrationReport report;
    report.device = space_.base().hw.name();
    report.seed = opts_.fit.seed;
    report.starts = opts_.fit.starts;
    report.parameter_names.reserve(space_.size());
    for (std::size_t i = 0; i < space_.size(); ++i)
        report.parameter_names.push_back(space_.parameter(i).name);
    report.initial = problem.x0;
    report.fitted = outcome.x;
    report.lower = problem.bounds.lower;
    report.upper = problem.bounds.upper;
    report.initial_loss = outcome.starts.front().initial_loss;
    report.best_loss = outcome.loss;
    report.converged = outcome.converged;
    report.message = outcome.message;
    report.start_outcomes = outcome.starts;
    report.cache_hits = outcome.cache_hits();
    report.cache_misses = outcome.cache_misses();
    report.model_solves = outcome.model_solves();
    report.convergence = outcome.convergence;

    report.residuals = residual_records(fitted, train_, false);
    report.train_error = fit_error(report.residuals);
    const auto holdout_records =
        residual_records(fitted, holdout_, true);
    report.holdout_error = fit_error(holdout_records);
    report.residuals.insert(report.residuals.end(),
                            holdout_records.begin(),
                            holdout_records.end());

    report.warnings = identifiability(space_, problem.residuals,
                                      outcome.x, outcome.residuals);

    // k-fold cross-validation over the training set, fanned across the
    // runner: fold f refits on train-minus-fold and validates on the
    // fold. Each fold derives its own seed, so results are
    // thread-count-independent.
    if (opts_.k_folds >= 2) {
        const auto folds =
            train_.k_folds(opts_.k_folds,
                           runner::derive_seed(opts_.fit.seed, 7777));
        std::vector<FoldOutcome> fold_outcomes(folds.size());
        runner::parallel_for(
            folds.size(), opts_.fit.threads, [&](std::size_t f) {
                FoldOutcome fo;
                fo.fold = f;
                try {
                    FitProblem fp;
                    fp.residuals = make_residual_fn(
                        space_, folds[f].first, opts_.loss);
                    fp.x0 = problem.x0;
                    fp.bounds = problem.bounds;
                    fp.scales = problem.scales;
                    FitOptions fopt = opts_.fit;
                    // The fold fit runs inside this parallel_for; its own
                    // fan-out must stay serial. Checkpoint hooks apply to
                    // top-level starts only — a fold's inner starts must
                    // never read or write the top-level journal.
                    fopt.threads = 1;
                    fopt.seed = runner::derive_seed(opts_.fit.seed,
                                                    10'000 + f);
                    fopt.resume_lookup = {};
                    fopt.on_start_complete = {};
                    const FitOutcome fold_fit =
                        fit_residuals(fp, fopt);
                    const Candidate fold_candidate =
                        space_.apply(fold_fit.x);
                    fo.train_error = mean_throughput_error(
                        fold_candidate, folds[f].first);
                    fo.validation_error = mean_throughput_error(
                        fold_candidate, folds[f].second);
                } catch (const std::exception& e) {
                    fo.failed = true;
                    fo.message = e.what();
                }
                fold_outcomes[f] = std::move(fo);
            });
        report.folds = std::move(fold_outcomes);
    }

    report.fitted_hardware = io::to_json(fitted.hw);

    if (metrics != nullptr) {
        metrics->counter("calib.model_solves").add(report.model_solves);
        metrics->counter("calib.cache.hits").add(report.cache_hits);
        metrics->counter("calib.cache.misses").add(report.cache_misses);
        metrics->counter("calib.starts").add(report.starts);
        metrics->counter("calib.warnings")
            .add(report.warnings.size());
        metrics->gauge("calib.loss.initial").set(report.initial_loss);
        metrics->gauge("calib.loss.best").set(report.best_loss);
        metrics->gauge("calib.error.train.throughput")
            .set(report.train_error.throughput);
        metrics->gauge("calib.error.holdout.throughput")
            .set(report.holdout_error.throughput);
        auto& hist = metrics->histogram(
            "calib.residual.abs_rel_throughput_error",
            {0.01, 0.02, 0.05, 0.1, 0.2, 0.5});
        for (const auto& rec : report.residuals)
            hist.record(std::abs(rec.throughput_rel_error));
        // The convergence trace, as a monotone gauge series.
        metrics->gauge("calib.convergence.evaluations")
            .set(static_cast<double>(report.convergence.size()));
        if (!report.convergence.empty())
            metrics->gauge("calib.convergence.final")
                .set(report.convergence.back());
    }

    return report;
}

} // namespace lognic::calib
