#include "lognic/runner/replicator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "lognic/runner/seed.hpp"

namespace lognic::runner {
namespace {

sim::SimResult
fake_result(double gbps, double mean_us, std::uint64_t completed)
{
    sim::SimResult r;
    r.delivered = Bandwidth::from_gbps(gbps);
    r.delivered_ops = OpsRate::from_mops(gbps / 8.0);
    r.mean_latency = Seconds::from_micros(completed > 0 ? mean_us : 0.0);
    r.p50_latency = r.mean_latency;
    r.p99_latency = r.mean_latency;
    r.completed = completed;
    r.generated = completed;
    return r;
}

TEST(Summarize, EmptyAndSingleton)
{
    const Summary empty = summarize({});
    EXPECT_EQ(empty.n, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0.0);

    const Summary one = summarize({3.5});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 3.5);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.ci_half, 0.0);
}

TEST(Summarize, MeanStddevAndT95Interval)
{
    // n = 5, mean 3, sample stddev sqrt(2.5); t_{0.975, 4} = 2.776.
    const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
    EXPECT_NEAR(s.ci_half, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
}

TEST(Replicator, SeedsAreDerivedAndDistinct)
{
    const Replicator rep(64, 42);
    const auto seeds = rep.seeds();
    ASSERT_EQ(seeds.size(), 64u);
    std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        EXPECT_EQ(seeds[i], derive_seed(42, i));
}

TEST(Replicator, AggregatesAcrossReplications)
{
    const Replicator rep(4, 1);
    const auto out = rep.run_guarded([](std::uint64_t seed) {
        // Deterministic pseudo-results keyed off the seed's low bits so
        // aggregation itself (not the simulator) is under test.
        const double x = static_cast<double>(seed % 7);
        return fake_result(10.0 + x, 5.0 + x, 100);
    });
    ASSERT_TRUE(out.complete());
    const ReplicationResult& res = out.stats;
    EXPECT_EQ(res.replications, 4u);
    EXPECT_EQ(res.degenerate, 0u);
    EXPECT_EQ(res.seeds, rep.seeds());
    EXPECT_EQ(res.delivered_gbps.n, 4u);
    EXPECT_EQ(res.mean_latency_us.n, 4u);
    // Latency tracks throughput by construction: mean offsets match.
    EXPECT_NEAR(res.mean_latency_us.mean - 5.0,
                res.delivered_gbps.mean - 10.0, 1e-9);
}

TEST(Replicator, DegenerateReplicationsExcludedFromLatency)
{
    // One replication completed nothing: its sentinel-0.0 latencies must
    // not drag the latency mean down, but its zero throughput is real.
    std::vector<std::uint64_t> seeds{1, 2, 3};
    std::vector<sim::SimResult> results{
        fake_result(10.0, 8.0, 100),
        fake_result(0.0, 0.0, 0), // degenerate
        fake_result(10.0, 12.0, 100),
    };
    const auto agg = Replicator::aggregate(seeds, results);
    EXPECT_EQ(agg.replications, 3u);
    EXPECT_EQ(agg.degenerate, 1u);
    EXPECT_EQ(agg.mean_latency_us.n, 2u);
    EXPECT_DOUBLE_EQ(agg.mean_latency_us.mean, 10.0);
    EXPECT_EQ(agg.delivered_gbps.n, 3u);
    EXPECT_NEAR(agg.delivered_gbps.mean, 20.0 / 3.0, 1e-12);
}

TEST(Replicator, AggregatesMetricsSnapshots)
{
    // Counters sum, gauges average across replications; empty snapshots
    // (e.g. from a fake or legacy result) simply don't contribute.
    std::vector<std::uint64_t> seeds{1, 2, 3};
    std::vector<sim::SimResult> results{
        fake_result(10.0, 8.0, 100),
        fake_result(12.0, 9.0, 120),
        fake_result(0.0, 0.0, 0),
    };
    obs::MetricsRegistry r0;
    r0.counter("sim.dropped").add(5);
    r0.gauge("sim.drop_rate").set(0.05);
    results[0].metrics = r0.snapshot();
    obs::MetricsRegistry r1;
    r1.counter("sim.dropped").add(7);
    r1.gauge("sim.drop_rate").set(0.07);
    results[1].metrics = r1.snapshot();

    const auto agg = Replicator::aggregate(seeds, results);
    EXPECT_EQ(agg.metrics.counter_or_zero("sim.dropped"), 12u);
    EXPECT_DOUBLE_EQ(agg.metrics.gauge_or("sim.drop_rate"), 0.06);

    // All-empty snapshots yield an empty aggregate.
    const auto none =
        Replicator::aggregate({9}, {fake_result(1.0, 1.0, 10)});
    EXPECT_TRUE(none.metrics.empty());
}

TEST(Replicator, RunResultsIndependentOfThreadCount)
{
    const Replicator rep(8, 99);
    auto fn = [](std::uint64_t seed) {
        return fake_result(static_cast<double>(seed % 100),
                           static_cast<double>(seed % 10), 10);
    };
    const auto serial = rep.run_guarded(fn, 1).stats;
    const auto parallel = rep.run_guarded(fn, 4).stats;
    EXPECT_EQ(serial.seeds, parallel.seeds);
    EXPECT_DOUBLE_EQ(serial.delivered_gbps.mean,
                     parallel.delivered_gbps.mean);
    EXPECT_DOUBLE_EQ(serial.delivered_gbps.stddev,
                     parallel.delivered_gbps.stddev);
    EXPECT_DOUBLE_EQ(serial.mean_latency_us.mean,
                     parallel.mean_latency_us.mean);
}

TEST(Replicator, RunGuardedIsolatesThrowingReplications)
{
    const Replicator rep(4, 7);
    const auto seeds = rep.seeds();
    auto fn = [&seeds](std::uint64_t seed) -> sim::SimResult {
        if (seed == seeds[1])
            throw std::runtime_error("replication exploded");
        return fake_result(10.0, 5.0, 100);
    };
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto out = rep.run_guarded(fn, threads);
        EXPECT_FALSE(out.complete());
        ASSERT_EQ(out.failed.size(), 1u);
        EXPECT_EQ(out.failed[0].replication, 1u);
        EXPECT_EQ(out.failed[0].seed, seeds[1]);
        EXPECT_NE(out.failed[0].error.find("exploded"), std::string::npos);
        // Survivors aggregate as a 3-replication batch.
        EXPECT_EQ(out.stats.replications, 3u);
        ASSERT_EQ(out.stats.seeds.size(), 3u);
        EXPECT_EQ(out.stats.seeds[0], seeds[0]);
        EXPECT_EQ(out.stats.seeds[1], seeds[2]);
        EXPECT_DOUBLE_EQ(out.stats.delivered_gbps.mean, 10.0);
    }
}

TEST(Replicator, RunGuardedWithNoFailuresMatchesRun)
{
    const Replicator rep(3, 5);
    auto fn = [](std::uint64_t seed) {
        return fake_result(static_cast<double>(seed % 11), 4.0, 10);
    };
    const auto guarded = rep.run_guarded(fn, 2);
    // A plain serial run: every seed in order, then one aggregate.
    std::vector<sim::SimResult> results;
    for (std::uint64_t seed : rep.seeds())
        results.push_back(fn(seed));
    const auto plain = Replicator::aggregate(rep.seeds(), results);
    EXPECT_TRUE(guarded.complete());
    EXPECT_EQ(guarded.stats.seeds, plain.seeds);
    EXPECT_DOUBLE_EQ(guarded.stats.delivered_gbps.mean,
                     plain.delivered_gbps.mean);
}

TEST(Replicator, ZeroReplicationsThrows)
{
    const Replicator rep(0, 1);
    EXPECT_THROW(rep.run_guarded(
                     [](std::uint64_t) { return fake_result(1, 1, 1); }),
                 std::invalid_argument);
}

TEST(Replicator, AggregateSizeMismatchThrows)
{
    EXPECT_THROW(Replicator::aggregate({1, 2}, {fake_result(1, 1, 1)}),
                 std::invalid_argument);
}

} // namespace
} // namespace lognic::runner
