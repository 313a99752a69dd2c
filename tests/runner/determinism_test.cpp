/**
 * @file
 * The determinism suite the parallel runner's contract rests on:
 *  (a) a fixed seed reproduces an identical SimResult, bit for bit;
 *  (b) runner output is identical at 1 thread and at hardware concurrency;
 *  (c) derived replication seeds are pairwise distinct and pinned to
 *      platform-independent constants, and the SplitMix64 draw stream
 *      is their sequence.
 */
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::runner {
namespace {

void
expect_identical(const sim::SimResult& a, const sim::SimResult& b)
{
    EXPECT_EQ(a.delivered.bits_per_sec(), b.delivered.bits_per_sec());
    EXPECT_EQ(a.delivered_ops.per_sec(), b.delivered_ops.per_sec());
    EXPECT_EQ(a.mean_latency.seconds(), b.mean_latency.seconds());
    EXPECT_EQ(a.p50_latency.seconds(), b.p50_latency.seconds());
    EXPECT_EQ(a.p99_latency.seconds(), b.p99_latency.seconds());
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.drop_rate, b.drop_rate);
    ASSERT_EQ(a.vertex_stats.size(), b.vertex_stats.size());
    for (std::size_t i = 0; i < a.vertex_stats.size(); ++i) {
        EXPECT_EQ(a.vertex_stats[i].name, b.vertex_stats[i].name);
        EXPECT_EQ(a.vertex_stats[i].utilization,
                  b.vertex_stats[i].utilization);
        EXPECT_EQ(a.vertex_stats[i].mean_occupancy,
                  b.vertex_stats[i].mean_occupancy);
        EXPECT_EQ(a.vertex_stats[i].served, b.vertex_stats[i].served);
        EXPECT_EQ(a.vertex_stats[i].dropped, b.vertex_stats[i].dropped);
    }
}

TEST(Determinism, SameSeedSameSimReport)
{
    const auto sc = apps::make_inline_accel(devices::LiquidIoKernel::kMd5, 8);
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{1024.0}, Bandwidth::from_gbps(20.0));
    sim::SimOptions opts;
    opts.duration = 0.005;
    opts.seed = 1234;
    const auto first = sim::simulate(sc.hw, sc.graph, traffic, opts);
    const auto second = sim::simulate(sc.hw, sc.graph, traffic, opts);
    expect_identical(first, second);
    EXPECT_GT(first.completed, 0u);
}

void
expect_identical(const std::vector<PointResult>& a,
                 const std::vector<PointResult>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].stats.seeds, b[i].stats.seeds);
        EXPECT_EQ(a[i].stats.degenerate, b[i].stats.degenerate);
        for (auto pick :
             {&ReplicationResult::delivered_gbps,
              &ReplicationResult::delivered_mops,
              &ReplicationResult::mean_latency_us,
              &ReplicationResult::p50_latency_us,
              &ReplicationResult::p99_latency_us,
              &ReplicationResult::drop_rate}) {
            const Summary& sa = a[i].stats.*pick;
            const Summary& sb = b[i].stats.*pick;
            EXPECT_EQ(sa.n, sb.n);
            EXPECT_EQ(sa.mean, sb.mean);
            EXPECT_EQ(sa.stddev, sb.stddev);
            EXPECT_EQ(sa.ci_half, sb.ci_half);
        }
    }
}

TEST(Determinism, SweepIdenticalAcrossThreadCounts)
{
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{1500.0}, Bandwidth::from_gbps(80.0));
    Sweep sweep;
    for (std::uint32_t d = 1; d <= 4; ++d) {
        const auto sc = apps::make_panic_hybrid(0.5, d);
        sim::SimOptions opts;
        opts.duration = 0.004;
        sweep.add(SweepPoint{"D=" + std::to_string(d), sc.hw, sc.graph,
                             traffic, opts});
    }

    SweepOptions serial;
    serial.threads = 1;
    serial.replications = 2;
    serial.root_seed = 42;
    SweepOptions parallel = serial;
    parallel.threads = std::max(2u, std::thread::hardware_concurrency());

    expect_identical(sweep.run(serial), sweep.run(parallel));
}

TEST(Determinism, ReplicationSeedsDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t root : {0ull, 42ull, 0xFFFFFFFFFFFFFFFFull}) {
        seen.clear();
        for (std::uint64_t i = 0; i < 1000; ++i)
            seen.insert(derive_seed(root, i));
        EXPECT_EQ(seen.size(), 1000u) << "seed collision under root "
                                      << root;
    }
}

TEST(Determinism, ReplicationSeedsPinnedAcrossPlatforms)
{
    // SplitMix64 derivation is pure 64-bit integer arithmetic; these
    // constants must never change, on any platform or compiler. If this
    // test fails, the seeding scheme changed and every recorded figure
    // seed is invalidated — bump the root seeds everywhere or revert.
    static_assert(derive_seed(42, 0) == 0xbdd732262feb6e95ull);
    EXPECT_EQ(derive_seed(42, 0), 0xbdd732262feb6e95ull);
    EXPECT_EQ(derive_seed(42, 1), 0x28efe333b266f103ull);
    EXPECT_EQ(derive_seed(42, 2), 0x47526757130f9f52ull);
    EXPECT_EQ(derive_seed(42, 3), 0x581ce1ff0e4ae394ull);
    EXPECT_EQ(derive_seed(7, 0), 0x63cbe1e459320dd7ull);
}

TEST(Determinism, SplitMix64StreamIsTheDerivedSeedSequence)
{
    // check's generator and dse's searches both rest on draw i of the
    // stream being derive_seed(seed, i).
    for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                               ~std::uint64_t{0}}) {
        SplitMix64 stream(seed);
        for (std::uint64_t i = 0; i < 64; ++i)
            EXPECT_EQ(stream.next_u64(), derive_seed(seed, i))
                << "seed " << seed << " draw " << i;
    }
    SplitMix64 a(7), b(7);
    for (std::uint64_t n : {1ull, 2ull, 3ull, 1000ull})
        EXPECT_EQ(a.below(n), b.next_u64() % n);
}

} // namespace
} // namespace lognic::runner
