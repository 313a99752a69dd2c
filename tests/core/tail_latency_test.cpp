/**
 * @file
 * Tests for the p99 tail-latency extension: analytic checks against the
 * M/M/1 closed form and end-to-end validation against the simulator.
 */
#include <cmath>
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "lognic/core/latency_model.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::core {
namespace {

using test::mtu_traffic;
using test::single_stage_graph;
using test::small_nic;

TEST(TailLatency, SingleMm1StageMatchesClosedForm)
{
    // One M/M/1 stage: sojourn is exponential with the mean W, so
    // p99 = W * ln(100). The gamma moment match has shape exactly 1 here.
    const auto hw = small_nic();
    VertexParams p;
    p.parallelism = 1;
    p.queue_capacity = 2000; // effectively infinite
    const auto g = single_stage_graph(hw, p);
    const auto est = estimate_latency(g, hw, mtu_traffic(5.0));
    EXPECT_NEAR(est.p99.seconds(), est.mean.seconds() * std::log(100.0),
                0.01 * est.p99.seconds());
}

TEST(TailLatency, P99NotCappedByBracket)
{
    // A deeply overloaded single engine: 0.2 s per request against ~83k
    // requests/s keeps its 8192-slot queue full, so the mean sojourn is
    // ~8192 x 0.2 s = 1638 s. Its exponential moment match puts p99 at
    // mean * ln(100), far beyond any fixed search cap.
    core::HardwareModel hw("slow-nic", Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(80.0),
                           Bandwidth::from_gbps(25.0));
    core::IpSpec ip;
    ip.name = "cores";
    ip.roofline =
        core::ExtendedRoofline(core::ServiceModel{Seconds{0.2}}, {});
    ip.max_engines = 1;
    ip.default_queue_capacity = 8192;
    hw.add_ip(ip);
    VertexParams p;
    p.parallelism = 1;
    p.queue_capacity = 8192;
    const auto est =
        estimate_latency(single_stage_graph(hw, p), hw, mtu_traffic(1.0));
    ASSERT_GT(est.mean.seconds(), 1e3);
    EXPECT_NEAR(est.p99.seconds(), est.mean.seconds() * std::log(100.0),
                0.01 * est.mean.seconds() * std::log(100.0));
}

TEST(TailLatency, P99AboveMean)
{
    const auto hw = small_nic();
    const auto g = test::two_stage_graph(hw);
    const auto est = estimate_latency(g, hw, mtu_traffic(15.0));
    EXPECT_GT(est.p99.seconds(), est.mean.seconds());
    EXPECT_LT(est.p99.seconds(), 10.0 * est.mean.seconds());
}

TEST(TailLatency, DeterministicOverheadShiftsNotStretches)
{
    const auto hw = small_nic();
    VertexParams base;
    base.parallelism = 1;
    VertexParams shifted = base;
    shifted.overhead = Seconds::from_micros(50.0);
    const auto est_a =
        estimate_latency(single_stage_graph(hw, base), hw, mtu_traffic(5.0));
    const auto est_b = estimate_latency(single_stage_graph(hw, shifted), hw,
                                        mtu_traffic(5.0));
    // A pure deterministic delay moves the whole distribution.
    EXPECT_NEAR(est_b.p99.seconds() - est_a.p99.seconds(), 50e-6, 1e-7);
}

TEST(TailLatency, MatchesSimulatedP99SingleEngine)
{
    const auto hw = small_nic();
    VertexParams p;
    p.parallelism = 1;
    p.queue_capacity = 256;
    const auto g = single_stage_graph(hw, p);
    const auto traffic = mtu_traffic(6.0); // rho ~ 0.69
    const auto est = estimate_latency(g, hw, traffic);
    sim::SimOptions opts;
    opts.duration = 0.5;
    opts.seed = 4;
    const auto res = sim::simulate(hw, g, traffic, opts);
    EXPECT_NEAR(res.p99_latency.seconds(), est.p99.seconds(),
                0.12 * est.p99.seconds());
}

TEST(TailLatency, MatchesSimulatedP99TwoStages)
{
    // Two stochastic stages: the gamma moment match is an approximation;
    // it must still land within ~25% of the simulated tail.
    const auto hw = small_nic();
    const auto g = test::two_stage_graph(hw);
    const auto traffic = mtu_traffic(14.0);
    const auto est = estimate_latency(g, hw, traffic);
    sim::SimOptions opts;
    opts.duration = 0.3;
    opts.seed = 8;
    const auto res = sim::simulate(hw, g, traffic, opts);
    EXPECT_NEAR(res.p99_latency.seconds(), est.p99.seconds(),
                0.25 * est.p99.seconds());
}

TEST(TailLatency, LowVariabilityEnginesTightenTheTail)
{
    // The same operating point with deterministic-ish service has a much
    // shorter tail: scv drives both the P-K wait and the tail spread.
    auto make_hw = [](double scv) {
        core::HardwareModel hw("scv-nic", Bandwidth::from_gbps(100.0),
                               Bandwidth::from_gbps(80.0),
                               Bandwidth::from_gbps(25.0));
        core::IpSpec ip;
        ip.name = "cores";
        ip.roofline = core::ExtendedRoofline(
            core::ServiceModel{Seconds::from_micros(1.0),
                               Bandwidth::from_gigabytes_per_sec(4.0)},
            {});
        ip.max_engines = 1;
        ip.default_queue_capacity = 256;
        ip.service_scv = scv;
        hw.add_ip(ip);
        return hw;
    };
    const auto hw_exp = make_hw(1.0);
    const auto hw_det = make_hw(0.05);
    const auto g_exp = single_stage_graph(hw_exp);
    const auto g_det = single_stage_graph(hw_det);
    const auto traffic = mtu_traffic(6.0);
    const auto est_exp = estimate_latency(g_exp, hw_exp, traffic);
    const auto est_det = estimate_latency(g_det, hw_det, traffic);
    EXPECT_LT(est_det.mean.seconds(), est_exp.mean.seconds());
    EXPECT_LT(est_det.p99.seconds(), 0.8 * est_exp.p99.seconds());

    // And the simulator agrees with the direction.
    sim::SimOptions opts;
    opts.duration = 0.2;
    const auto sim_exp = sim::simulate(hw_exp, g_exp, traffic, opts);
    const auto sim_det = sim::simulate(hw_det, g_det, traffic, opts);
    EXPECT_LT(sim_det.p99_latency.seconds(),
              sim_exp.p99_latency.seconds());
    EXPECT_NEAR(sim_det.mean_latency.seconds(), est_det.mean.seconds(),
                0.15 * est_det.mean.seconds());
}

} // namespace
} // namespace lognic::core
