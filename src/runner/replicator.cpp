#include "lognic/runner/replicator.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "lognic/runner/seed.hpp"
#include "lognic/runner/thread_pool.hpp"

namespace lognic::runner {

namespace {

/**
 * Two-sided 97.5% Student-t critical values for df = 1..30; beyond that
 * the normal approximation (1.96) is within 0.5%. Indexed by df - 1.
 */
constexpr double kT975[30] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
};

double
t975(std::size_t df)
{
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kT975[df - 1];
    return 1.96;
}

} // namespace

Summary
summarize(const std::vector<double>& samples)
{
    Summary s;
    s.n = samples.size();
    if (s.n == 0)
        return s;
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    s.mean = sum / static_cast<double>(s.n);
    if (s.n < 2)
        return s;
    double ss = 0.0;
    for (double x : samples) {
        const double d = x - s.mean;
        ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
    s.ci_half = t975(s.n - 1) * s.stddev
        / std::sqrt(static_cast<double>(s.n));
    return s;
}

std::vector<std::uint64_t>
Replicator::seeds() const
{
    std::vector<std::uint64_t> out;
    out.reserve(replications_);
    for (std::size_t i = 0; i < replications_; ++i)
        out.push_back(derive_seed(root_seed_, i));
    return out;
}

GuardedReplication
Replicator::run_guarded(const SimFn& fn, std::size_t threads) const
{
    if (replications_ == 0)
        throw std::invalid_argument("Replicator: zero replications");
    const auto reps_seeds = seeds();
    std::vector<sim::SimResult> results(replications_);
    std::vector<std::string> errors(replications_);
    std::vector<char> ok(replications_, 0);
    parallel_for(replications_, threads, [&](std::size_t i) {
        try {
            results[i] = fn(reps_seeds[i]);
            ok[i] = 1;
        } catch (const std::exception& e) {
            errors[i] = e.what();
        } catch (...) {
            errors[i] = "unknown exception";
        }
    });

    GuardedReplication out;
    std::vector<std::uint64_t> good_seeds;
    std::vector<sim::SimResult> good_results;
    for (std::size_t i = 0; i < replications_; ++i) {
        if (ok[i]) {
            good_seeds.push_back(reps_seeds[i]);
            good_results.push_back(std::move(results[i]));
        } else {
            out.failed.push_back(
                FailedReplication{i, reps_seeds[i], std::move(errors[i])});
        }
    }
    out.stats = aggregate(good_seeds, good_results);
    return out;
}

ReplicationResult
Replicator::aggregate(const std::vector<std::uint64_t>& seeds,
                      const std::vector<sim::SimResult>& results)
{
    if (seeds.size() != results.size())
        throw std::invalid_argument(
            "Replicator::aggregate: seeds/results size mismatch");
    ReplicationResult agg;
    agg.replications = results.size();
    agg.seeds = seeds;

    std::vector<double> gbps, mops, drop, lat_mean, lat_p50, lat_p99;
    for (const auto& r : results) {
        gbps.push_back(r.delivered.gbps());
        mops.push_back(r.delivered_ops.mops());
        drop.push_back(r.drop_rate);
        if (r.completed == 0) {
            // Empty-set sentinel: latency fields are meaningless, skip.
            ++agg.degenerate;
            continue;
        }
        lat_mean.push_back(r.mean_latency.micros());
        lat_p50.push_back(r.p50_latency.micros());
        lat_p99.push_back(r.p99_latency.micros());
    }
    agg.delivered_gbps = summarize(gbps);
    agg.delivered_mops = summarize(mops);
    agg.drop_rate = summarize(drop);
    agg.mean_latency_us = summarize(lat_mean);
    agg.p50_latency_us = summarize(lat_p50);
    agg.p99_latency_us = summarize(lat_p99);

    std::vector<obs::MetricsSnapshot> snapshots;
    for (const auto& r : results) {
        if (!r.metrics.empty())
            snapshots.push_back(r.metrics);
    }
    if (!snapshots.empty())
        agg.metrics = obs::aggregate(snapshots);
    return agg;
}

} // namespace lognic::runner
