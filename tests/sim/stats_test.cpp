#include "lognic/sim/stats.hpp"

#include <gtest/gtest.h>

#include "lognic/runner/replicator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace lognic::sim {
namespace {

TEST(LatencyRecorder, MeanAndQuantiles)
{
    LatencyRecorder r;
    for (double us : {5.0, 1.0, 4.0, 2.0, 3.0})
        r.record(1.0, Seconds::from_micros(us));
    r.seal();
    EXPECT_NEAR(r.mean()->micros(), 3.0, 1e-12);
    EXPECT_NEAR(r.p50()->micros(), 3.0, 1e-12);
    EXPECT_NEAR(r.quantile(1.0)->micros(), 5.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.0)->micros(), 1.0, 1e-12);
    EXPECT_NEAR(r.max()->micros(), 5.0, 1e-12);
}

TEST(LatencyRecorder, NearestRankQuantiles)
{
    // 10 samples, 1..10 us.
    LatencyRecorder r;
    for (int i = 10; i >= 1; --i)
        r.record(1.0, Seconds::from_micros(static_cast<double>(i)));
    r.seal();
    EXPECT_NEAR(r.quantile(0.0)->micros(), 1.0, 1e-12);  // rank 1 (min)
    EXPECT_NEAR(r.quantile(0.5)->micros(), 5.0, 1e-12);  // ceil(5) = 5
    EXPECT_NEAR(r.quantile(0.99)->micros(), 10.0, 1e-12); // ceil(9.9) = 10
    EXPECT_NEAR(r.quantile(1.0)->micros(), 10.0, 1e-12); // rank n (max)
    EXPECT_NEAR(r.quantile(0.41)->micros(), 5.0, 1e-12); // ceil(4.1) = 5
}

TEST(LatencyRecorder, WarmupSamplesDropped)
{
    LatencyRecorder r(10.0);
    r.record(5.0, Seconds::from_micros(100.0)); // warmup, dropped
    r.record(15.0, Seconds::from_micros(2.0));
    r.seal();
    EXPECT_EQ(r.count(), 1u);
    EXPECT_NEAR(r.mean()->micros(), 2.0, 1e-12);
}

TEST(LatencyRecorder, WarmupBoundaryInstantIsExcluded)
{
    // The measurement window is the half-open (warmup_end, horizon]: a
    // completion at exactly warmup_end still belongs to the warmup.
    LatencyRecorder r(10.0);
    r.record(10.0, Seconds::from_micros(1.0));
    EXPECT_EQ(r.count(), 0u);
    r.record(10.0 + 1e-9, Seconds::from_micros(1.0));
    EXPECT_EQ(r.count(), 1u);
}

TEST(LatencyRecorder, EmptyIsNullopt)
{
    const LatencyRecorder r;
    EXPECT_FALSE(r.mean().has_value());
    EXPECT_FALSE(r.p99().has_value());
    EXPECT_FALSE(r.quantile(0.0).has_value());
    EXPECT_FALSE(r.max().has_value());
}

TEST(LatencyRecorder, QuantileRangeChecked)
{
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(1.0));
    r.seal();
    EXPECT_THROW(r.quantile(1.5), std::invalid_argument);
    EXPECT_THROW(r.quantile(-0.1), std::invalid_argument);
}

TEST(LatencyRecorder, UnsealedOrderedReadsThrow)
{
    // The seal contract: quantile/max on a recorder with unsorted samples
    // must refuse rather than sort behind a const accessor (that lazy
    // sort was a data race for concurrent replication readers).
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(2.0));
    EXPECT_FALSE(r.sealed());
    EXPECT_THROW(r.quantile(0.5), std::logic_error);
    EXPECT_THROW(r.max(), std::logic_error);
    // mean() and count() need no ordering and work in the write phase.
    EXPECT_NEAR(r.mean()->micros(), 2.0, 1e-12);
    EXPECT_EQ(r.count(), 1u);
}

TEST(LatencyRecorder, RecordingAfterSealRequiresReseal)
{
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(1.0));
    r.record(1.0, Seconds::from_micros(3.0));
    r.seal();
    EXPECT_NEAR(r.p50()->micros(), 1.0, 1e-12);
    r.record(1.0, Seconds::from_micros(0.5)); // reopens the write phase
    EXPECT_FALSE(r.sealed());
    EXPECT_THROW(r.quantile(0.0), std::logic_error);
    r.seal();
    EXPECT_NEAR(r.quantile(0.0)->micros(), 0.5, 1e-12);
}

TEST(LatencyRecorder, SealIsIdempotent)
{
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(4.0));
    r.seal();
    r.seal();
    EXPECT_TRUE(r.sealed());
    EXPECT_NEAR(r.p50()->micros(), 4.0, 1e-12);
}

TEST(LatencyRecorder, SingleSampleQuantiles)
{
    // n = 1: every q collapses to the single sample (rank clamped to
    // [1, 1]).
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(7.0));
    r.seal();
    EXPECT_NEAR(r.quantile(0.0)->micros(), 7.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.5)->micros(), 7.0, 1e-12);
    EXPECT_NEAR(r.quantile(1.0)->micros(), 7.0, 1e-12);
}

TEST(LatencyRecorder, InteriorRankNotInflatedByFloatingPointOvershoot)
{
    // Regression: 0.07 * 100 evaluates to 7.0000000000000009 in binary
    // floating point, and ceil() turned that ulp into rank 8 — reporting
    // the 8th of 100 samples for the 7th percentile. The rank computation
    // must snap values a few ulps past an exact integer back onto it.
    LatencyRecorder r;
    for (int i = 100; i >= 1; --i)
        r.record(1.0, Seconds::from_micros(static_cast<double>(i)));
    r.seal();
    // Every q here has q * 100 exactly integral in real arithmetic but
    // one ulp high in floating point.
    EXPECT_NEAR(r.quantile(0.07)->micros(), 7.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.14)->micros(), 14.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.28)->micros(), 28.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.55)->micros(), 55.0, 1e-12);
    // Genuinely fractional q * n still rounds up (nearest-rank rule).
    EXPECT_NEAR(r.quantile(0.075)->micros(), 8.0, 1e-12);
    EXPECT_NEAR(r.quantile(0.551)->micros(), 56.0, 1e-12);
}

TEST(LatencyRecorder, SealedReadsAgreeWithReplicationAggregation)
{
    // The runner's replication path aggregates the simulator's sealed
    // p50/p99 fields; a single replication's summary must reproduce the
    // sealed reads exactly — in particular the single-sample case, where
    // every quantile is that sample.
    LatencyRecorder r;
    r.record(1.0, Seconds::from_micros(42.0));
    r.seal();
    SimResult one;
    one.completed = 1;
    one.mean_latency = *r.mean();
    one.p50_latency = *r.p50();
    one.p99_latency = *r.p99();
    const auto agg = runner::Replicator::aggregate(
        std::vector<std::uint64_t>{7u}, std::vector<SimResult>{one});
    ASSERT_EQ(agg.p50_latency_us.n, 1u);
    EXPECT_DOUBLE_EQ(agg.p50_latency_us.mean, r.p50()->micros());
    EXPECT_DOUBLE_EQ(agg.p99_latency_us.mean, r.p99()->micros());
    EXPECT_DOUBLE_EQ(agg.p50_latency_us.mean, agg.p99_latency_us.mean);
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(LatencyRecorder, MatchesSortedVectorOracleBitForBit)
{
    // 1.3M seeded samples, ~1.04M past the warmup cut (some exactly on it),
    // drawn with heavy ties and a block of signed zeros below every other
    // value, so which zero a low quantile returns depends on the order
    // sorting leaves equal keys in.
    constexpr double kWarmup = 0.2;
    constexpr std::size_t kSamples = 1'300'000;
    std::mt19937_64 rng(0x5eed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    LatencyRecorder r(kWarmup);
    std::vector<double> kept;
    for (std::size_t i = 0; i < kSamples; ++i) {
        const double t = i % 1000 == 0 ? kWarmup : unit(rng);
        const double kind = unit(rng);
        double seconds = 0.0;
        if (kind < 0.05)
            seconds = -0.0;
        else if (kind < 0.10)
            seconds = 0.0;
        else if (kind < 0.60)
            seconds = 1e-6 * std::floor(1.0 + 500.0 * unit(rng));
        else
            seconds = 1e-3 * unit(rng) + 1e-9;
        r.record(t, Seconds{seconds});
        if (t > kWarmup)
            kept.push_back(seconds);
    }
    ASSERT_GE(kept.size(), 1'000'000u);
    ASSERT_EQ(r.count(), kept.size());

    const auto same_bits = [](double a, double b) {
        return bits(a) == bits(b);
    };
    // Before seal(): insertion order, which snapshots serialize.
    ASSERT_TRUE(std::equal(r.samples().begin(), r.samples().end(),
                           kept.begin(), kept.end(), same_bits));
    double sum = 0.0;
    for (double x : kept)
        sum += x;
    EXPECT_EQ(bits(r.mean()->seconds()),
              bits(sum / static_cast<double>(kept.size())));

    r.seal();
    std::vector<double> sorted = kept;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::equal(r.samples().begin(), r.samples().end(),
                           sorted.begin(), sorted.end(), same_bits));
    // Nearest rank max(1, ceil(percent * n / 100)) in integers.
    const std::size_t n = sorted.size();
    for (const std::size_t percent : {0u, 1u, 7u, 50u, 99u, 100u}) {
        const std::size_t rank =
            std::max<std::size_t>(1, (percent * n + 99) / 100);
        EXPECT_EQ(bits(r.quantile(percent / 100.0)->seconds()),
                  bits(sorted[rank - 1]))
            << "q=" << percent / 100.0;
    }
    EXPECT_EQ(bits(r.max()->seconds()), bits(sorted.back()));
    // A sealed mean sums in sorted order, as the simulator reads it.
    double sorted_sum = 0.0;
    for (double x : sorted)
        sorted_sum += x;
    EXPECT_EQ(bits(r.mean()->seconds()),
              bits(sorted_sum / static_cast<double>(n)));
}

TEST(WindowedCounter, CountsOnlyInsideMeasurementWindow)
{
    WindowedCounter c(10.0);
    c.record(5.0);  // warmup
    c.record(10.0); // exactly at the boundary: still warmup
    EXPECT_EQ(c.count(), 0u);
    c.record(10.0 + 1e-9);
    c.record(20.0);
    EXPECT_EQ(c.count(), 2u);
}

TEST(WindowedCounter, ZeroWarmupCountsEverythingPositive)
{
    WindowedCounter c;
    c.record(0.0); // the boundary itself is excluded even at warmup 0
    c.record(1e-12);
    EXPECT_EQ(c.count(), 1u);
}

TEST(WindowedCounter, UpperEdgeClampsToHorizon)
{
    // The documented window is (warmup_end, horizon]: an event at exactly
    // the horizon counts, one past it (e.g. a drain-time completion after
    // the run's nominal end) must not inflate the accounting.
    WindowedCounter c(1.0, 10.0);
    c.record(5.0);
    c.record(10.0); // closed upper edge: counted
    EXPECT_EQ(c.count(), 2u);
    c.record(10.0 + 1e-9); // past the horizon: ignored
    c.record(50.0);
    EXPECT_EQ(c.count(), 2u);
}

TEST(WindowedCounter, DefaultHorizonIsUnbounded)
{
    WindowedCounter c(1.0);
    c.record(std::numeric_limits<double>::max());
    EXPECT_EQ(c.count(), 1u);
}

TEST(ThroughputMeter, RatesOverMeasurementWindow)
{
    ThroughputMeter m(1.0);
    m.record(0.5, Bytes{1000.0}); // warmup, dropped
    m.record(1.5, Bytes{1250.0});
    m.record(2.0, Bytes{1250.0});
    // 2500 B over the (1.0, 3.0] window = 1250 B/s = 10 kbit/s.
    EXPECT_NEAR(m.bandwidth(3.0).bits_per_sec(), 10000.0, 1e-9);
    EXPECT_NEAR(m.rate(3.0).per_sec(), 1.0, 1e-12);
    EXPECT_EQ(m.requests(), 2u);
    EXPECT_DOUBLE_EQ(m.total().bytes(), 2500.0);
}

TEST(ThroughputMeter, WarmupBoundaryInstantIsExcluded)
{
    ThroughputMeter m(1.0);
    m.record(1.0, Bytes{1000.0}); // exactly at the boundary: warmup
    EXPECT_EQ(m.requests(), 0u);
    m.record(1.0 + 1e-9, Bytes{1000.0});
    EXPECT_EQ(m.requests(), 1u);
}

TEST(ThroughputMeter, DegenerateWindowIsZero)
{
    ThroughputMeter m(5.0);
    m.record(6.0, Bytes{100.0});
    EXPECT_DOUBLE_EQ(m.bandwidth(5.0).bits_per_sec(), 0.0);
    EXPECT_DOUBLE_EQ(m.rate(4.0).per_sec(), 0.0);
}

TEST(ThroughputMeter, ZeroWidthWindowNeverInfOrNan)
{
    // measure_end == warmup_end divides by zero without the guard; the
    // rates must come back as finite zeros, never inf/NaN (a truncated
    // run that died inside its warmup hits exactly this).
    ThroughputMeter m(2.0);
    m.record(3.0, Bytes{1e6});
    const double bw = m.bandwidth(2.0).bits_per_sec();
    const double ops = m.rate(2.0).per_sec();
    EXPECT_TRUE(std::isfinite(bw));
    EXPECT_TRUE(std::isfinite(ops));
    EXPECT_DOUBLE_EQ(bw, 0.0);
    EXPECT_DOUBLE_EQ(ops, 0.0);
    // Inverted window (measure_end < warmup_end): same rule.
    EXPECT_DOUBLE_EQ(m.bandwidth(0.0).bits_per_sec(), 0.0);
    EXPECT_DOUBLE_EQ(m.rate(-1.0).per_sec(), 0.0);
    // An empty meter with a zero-width window is 0/0 territory: still 0.
    const ThroughputMeter empty(2.0);
    EXPECT_DOUBLE_EQ(empty.bandwidth(2.0).bits_per_sec(), 0.0);
    EXPECT_DOUBLE_EQ(empty.rate(2.0).per_sec(), 0.0);
}

} // namespace
} // namespace lognic::sim
