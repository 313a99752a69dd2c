#include "lognic/ssd/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lognic/calib/calibrator.hpp"
#include "lognic/queueing/mm1n.hpp"

namespace lognic::ssd {

namespace {

/**
 * Predicted mean latency for occupancy @p s, parallelism @p c (treated as
 * continuous during fitting by interpolating the two neighbouring integer
 * channel counts), base latency @p base, and offered rate @p lambda.
 */
double
predict(double s, double c, double base, double lambda)
{
    const double mu = 1.0 / s;
    auto wait_at = [&](std::uint32_t ci) {
        const double cap = 0.999 * static_cast<double>(ci) * mu;
        const queueing::MmcQueue q(std::min(lambda, cap), mu, ci);
        return q.mean_queueing_delay();
    };
    const double lo = std::max(1.0, std::floor(c));
    const double hi = lo + 1.0;
    const double frac = std::clamp(c - lo, 0.0, 1.0);
    const double wq = (1.0 - frac) * wait_at(static_cast<std::uint32_t>(lo))
        + frac * wait_at(static_cast<std::uint32_t>(hi));
    return base + wq;
}

} // namespace

Seconds
CalibratedSsd::predict_latency(OpsRate offered) const
{
    return Seconds{predict(service_time.seconds(),
                           static_cast<double>(parallelism),
                           base_latency.seconds(), offered.per_sec())};
}

Seconds
CalibratedSsd::extra_latency() const
{
    return Seconds{
        std::max(0.0, base_latency.seconds() - service_time.seconds())};
}

core::IpSpec
CalibratedSsd::to_ip_spec(const std::string& name, Bytes block,
                          std::uint32_t queue_capacity) const
{
    // One engine's per-request time must equal the fitted occupancy at the
    // workload's block size; express it as pure byte-rate service.
    core::ServiceModel engine;
    engine.fixed_cost = Seconds{0.0};
    engine.byte_rate = block / service_time;

    core::IpSpec spec;
    spec.name = name;
    spec.kind = core::IpKind::kStorage;
    spec.roofline = core::ExtendedRoofline(engine, {});
    spec.max_engines = parallelism;
    spec.default_queue_capacity = queue_capacity;
    // The S4.7 curve-fitting escape hatch: the latency model uses the
    // fitted sojourn curve instead of Eq. 9-12 for this opaque IP.
    const CalibratedSsd snapshot = *this;
    spec.sojourn_curve = [snapshot](double lambda) {
        return snapshot.predict_latency(OpsRate{lambda});
    };
    return spec;
}

CalibratedSsd
calibrate(const std::vector<SsdGroundTruth::Sample>& samples, Bytes block)
{
    if (samples.size() < 3)
        throw std::invalid_argument("calibrate: need >= 3 samples");

    // Initial guesses: base latency from the lowest-load sample;
    // occupancy from the knee (capacity) at the highest achieved rate,
    // assuming a moderate channel count to start.
    const double base0 = samples.front().latency.seconds();
    double max_rate = 0.0;
    for (const auto& sm : samples)
        max_rate = std::max(max_rate, sm.achieved.per_sec());
    const double c0 = 8.0;
    const double s0 = std::max(1e-7, c0 / (max_rate / 0.95));

    // Stage 1 delegates to the generic calib engine: Levenberg-Marquardt
    // with bounded multi-start (guards against the occasional bad
    // knee-derived initial guess) and eval memoization. The channel count
    // is continuous here.
    calib::FitProblem problem;
    problem.residuals = [samples](const solver::Vector& x) {
        const double s = x[0];
        const double c = x[1];
        const double base = x[2];
        solver::Vector r(samples.size());
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const double pred =
                predict(s, c, base, samples[i].offered.per_sec());
            // Relative residuals weight the low-latency knee region fairly.
            r[i] = (pred - samples[i].latency.seconds())
                / samples[i].latency.seconds();
        }
        return r;
    };
    problem.x0 = {s0, c0, base0};
    problem.bounds.lower = {1e-7, 1.0, 0.0};
    problem.bounds.upper = {1.0, 64.0, 1.0};

    calib::FitOptions options;
    options.starts = 3;
    const calib::FitOutcome fit = calib::fit_residuals(problem, options);

    // Stage 2: predict_latency runs at an *integer* channel count, so
    // refit (s, base) with c pinned at the rounded value — rounding c
    // alone would corrupt the knee, since (c, s) are only identified
    // jointly through c / s.
    const double c_int = std::max(1.0, std::floor(fit.x[1] + 0.5));
    calib::FitProblem restricted;
    restricted.residuals = [samples, c_int](const solver::Vector& x) {
        solver::Vector r(samples.size());
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const double pred =
                predict(x[0], c_int, x[1], samples[i].offered.per_sec());
            r[i] = (pred - samples[i].latency.seconds())
                / samples[i].latency.seconds();
        }
        return r;
    };
    // Preserve the well-determined knee c / s across the rounding.
    restricted.x0 = {fit.x[0] * c_int / fit.x[1], fit.x[2]};
    restricted.bounds.lower = {1e-7, 0.0};
    restricted.bounds.upper = {1.0, 1.0};
    calib::FitOptions polish = options;
    polish.starts = 1;
    const calib::FitOutcome refit =
        calib::fit_residuals(restricted, polish);

    CalibratedSsd out;
    out.service_time = Seconds{refit.x[0]};
    out.parallelism = static_cast<std::uint32_t>(c_int);
    out.base_latency = Seconds{refit.x[1]};

    double sse = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double pred = predict(refit.x[0], c_int, refit.x[1],
                                    samples[i].offered.per_sec());
        const double err = pred - samples[i].latency.seconds();
        sse += err * err;
    }
    out.fit_rmse = std::sqrt(sse / static_cast<double>(samples.size()));
    // Capacity uses stage 1's *continuous* channel-count estimate: c / s
    // is the best-determined quantity of the fit, and rounding would
    // perturb it.
    out.capacity = Bandwidth::from_bytes_per_sec(
        fit.x[1] * block.bytes() / fit.x[0]);
    return out;
}

} // namespace lognic::ssd
