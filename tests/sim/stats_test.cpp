#include "lognic/sim/stats.hpp"

#include <gtest/gtest.h>

#include "lognic/runner/replicator.hpp"

#include "heap_counter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
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

/// IEEE-754 totalOrder, the order seal() sorts in.
bool
total_order_less(double a, double b)
{
    return std::strong_order(a, b) < 0;
}

bool
same_bits(double a, double b)
{
    return bits(a) == bits(b);
}

TEST(LatencyRecorder, MatchesSortedVectorOracleBitForBit)
{
    // 1.3M seeded samples, ~1.04M past the warmup cut (some exactly on it),
    // drawn with heavy ties and a block of signed zeros below every other
    // value. totalOrder puts every -0.0 before every +0.0, so which zero a
    // low quantile returns is fixed by the order, not by the algorithm.
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
    std::sort(sorted.begin(), sorted.end(), total_order_less);
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

/// seal() of @p values must leave the samples in the order std::sort
/// gives them under std::strong_order, bit for bit.
void
expect_seal_in_total_order(const std::vector<double>& values,
                           const std::string& what)
{
    LatencyRecorder r;
    for (double x : values)
        r.record(1.0, Seconds{x});
    std::vector<double> oracle(r.samples().begin(), r.samples().end());
    ASSERT_EQ(oracle.size(), values.size()) << what;
    std::sort(oracle.begin(), oracle.end(), total_order_less);
    r.seal();
    ASSERT_TRUE(r.sealed());
    EXPECT_TRUE(std::equal(r.samples().begin(), r.samples().end(),
                           oracle.begin(), oracle.end(), same_bits))
        << what << " (n = " << values.size() << ")";
}

std::vector<double>
gamma_latencies(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::gamma_distribution<double> service(1.5, 4e-6);
    std::vector<double> out(n);
    for (double& x : out)
        x = 2e-6 + service(rng);
    return out;
}

TEST(LatencyRecorder, SealMatchesTheTotalOrderOracle)
{
    // Around the scratch size (8,192 keys): sorted in the scratch at once,
    // or partitioned in place first.
    for (const std::size_t n : {0u, 1u, 2u, 3u, 100u, 8191u, 8192u, 8193u,
                                20000u})
        expect_seal_in_total_order(gamma_latencies(n, n + 1),
                                   "gamma latencies");

    expect_seal_in_total_order(std::vector<double>(50000, 7.5e-6),
                               "all equal");

    // 99% of the samples in a range one partition digit cannot split, the
    // rest spread over nine decades: the big bucket is partitioned again.
    {
        std::mt19937_64 rng(99);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::vector<double> v;
        for (std::size_t i = 0; i < 100000; ++i)
            v.push_back(i % 100 == 0 ? std::pow(10.0, -9.0 * unit(rng))
                                     : 1.0 + 1e-12 * unit(rng));
        expect_seal_in_total_order(v, "99% in one bucket");
    }

    // Negatives, both zeros, both infinities, subnormals of both signs,
    // the extremes, and NaNs of both signs with several payloads, mixed
    // into ordinary values and repeated past the scratch size.
    {
        const double inf = std::numeric_limits<double>::infinity();
        const double tiny = std::numeric_limits<double>::denorm_min();
        std::vector<double> specials{
            -0.0, 0.0, inf, -inf, tiny, -tiny, 3 * tiny, -5 * tiny,
            std::numeric_limits<double>::min() / 2,
            std::numeric_limits<double>::min(),
            std::numeric_limits<double>::max(),
            std::numeric_limits<double>::lowest(), -1.0, -2.5e-6, 1.0};
        for (const std::uint64_t nan :
             {0x7ff8000000000000ULL, 0x7ff0000000000001ULL,
              0x7fffffffffffffffULL, 0x7ff4000000000abcULL,
              0xfff8000000000000ULL, 0xfff0000000000001ULL,
              0xffffffffffffffffULL, 0xfff4000000000abcULL})
            specials.push_back(std::bit_cast<double>(nan));
        expect_seal_in_total_order(specials, "special values");

        std::mt19937_64 rng(7);
        std::uniform_real_distribution<double> unit(-1.0, 1.0);
        std::vector<double> mixed;
        for (std::size_t i = 0; i < 30000; ++i)
            mixed.push_back(i % 7 == 0
                                ? specials[i % specials.size()]
                                : unit(rng) * std::pow(10.0, 30 * unit(rng)));
        expect_seal_in_total_order(mixed, "mixed signs and specials");
    }

    expect_seal_in_total_order(gamma_latencies(1'000'000, 1234),
                               "1M gamma latencies");
}

TEST(LatencyRecorder, SealAllocatesABoundThatDoesNotGrowWithN)
{
    // The samples are sorted where they are: seal() allocates only its
    // fixed key scratch, however many samples there are.
#ifdef LOGNIC_TEST_ASAN
    GTEST_SKIP() << "allocation counting is disabled under ASan "
                    "(interceptor pairing); see heap_counter.cpp";
#endif
    constexpr std::uint64_t kBound = 256 * 1024;
    for (const std::size_t n : {100'000u, 1'000'000u}) {
        LatencyRecorder r;
        for (double x : gamma_latencies(n, 42))
            r.record(1.0, Seconds{x});
        const std::uint64_t before = test::heap_bytes();
        r.seal();
        const std::uint64_t used = test::heap_bytes() - before;
        EXPECT_GT(used, 0u) << "n = " << n << ": the counter saw no scratch";
        EXPECT_LE(used, kBound) << "n = " << n;
    }
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
