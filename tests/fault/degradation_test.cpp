#include "lognic/fault/degradation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/core/model.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "../test_helpers.hpp"

namespace lognic::fault {
namespace {

FaultEvent
engine_fail(double at, const std::string& target, std::uint32_t count,
            double duration = 0.0)
{
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kEngineFail;
    e.target = target;
    e.count = count;
    e.duration = duration;
    return e;
}

TEST(DegradationCurve, HasOnePointPerFailedEngineAndDegradesMonotonically)
{
    const auto hw = test::small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = test::single_stage_graph(hw);
    const auto traffic = test::mtu_traffic(60.0);

    const auto curve = degradation_curve(hw, g, traffic, "cores");
    EXPECT_EQ(curve.vertex, "cores");
    EXPECT_EQ(curve.base_engines, 8u);
    ASSERT_EQ(curve.points.size(), 9u); // k = 0..8 inclusive

    for (std::size_t k = 0; k + 1 < curve.points.size(); ++k) {
        EXPECT_EQ(curve.points[k].engines_failed, k);
        EXPECT_EQ(curve.points[k].engines_left, 8u - k);
        // Losing one more engine never increases capacity or throughput.
        EXPECT_GE(curve.points[k].capacity.gbps(),
                  curve.points[k + 1].capacity.gbps());
        EXPECT_GE(curve.points[k].achieved.gbps(),
                  curve.points[k + 1].achieved.gbps());
    }
    // The all-engines-lost point passes nothing.
    EXPECT_EQ(curve.points.back().engines_left, 0u);
    EXPECT_DOUBLE_EQ(curve.points.back().achieved.gbps(), 0.0);
    EXPECT_DOUBLE_EQ(curve.points.back().capacity.gbps(), 0.0);
}

TEST(DegradationCurve, MaxFractionLimitsThePointsAndSkipsTheZeroPoint)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    const auto curve =
        degradation_curve(hw, g, test::mtu_traffic(10.0), "cores", 0.5);
    ASSERT_EQ(curve.points.size(), 5u); // k = 0..4
    EXPECT_GT(curve.points.back().engines_left, 0u);
}

TEST(DegradationCurve, RejectsBadVertexAndFraction)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    const auto traffic = test::mtu_traffic(10.0);
    EXPECT_THROW(degradation_curve(hw, g, traffic, "no-such-vertex"),
                 std::invalid_argument);
    EXPECT_THROW(degradation_curve(hw, g, traffic, "cores", 0.0),
                 std::invalid_argument);
    EXPECT_THROW(degradation_curve(hw, g, traffic, "cores", 1.5),
                 std::invalid_argument);
}

TEST(DegradationCurve, SerializesToJson)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    const auto curve =
        degradation_curve(hw, g, test::mtu_traffic(10.0), "cores", 0.25);
    const auto j = to_json(curve);
    EXPECT_EQ(j.at("vertex").as_string(), "cores");
    EXPECT_DOUBLE_EQ(j.at("base_engines").as_number(), 8.0);
    EXPECT_EQ(j.at("points").as_array().size(), curve.points.size());
    const auto& p0 = j.at("points").as_array().front();
    EXPECT_TRUE(p0.contains("achieved_gbps"));
    EXPECT_TRUE(p0.contains("mean_latency_us"));
}

// The acceptance criterion for the degraded-mode model: up to 50% of the
// bottleneck vertex's engines failed, the analytical curve's delivered
// throughput must agree with the faulted simulator within the same kind of
// tolerance band model_vs_sim_test uses for healthy operating points.
TEST(DegradationVsSim, DeliveredThroughputAgreesUpToHalfTheEnginesFailed)
{
    const auto hw = test::small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = test::single_stage_graph(hw);
    // 8 engines deliver ~69.8 Gbps at MTU, so 60 Gbps offered is
    // unsaturated at k <= 1 and saturated from k = 2 on — the band covers
    // both regimes of the curve.
    const auto traffic = test::mtu_traffic(60.0);
    const auto curve = degradation_curve(hw, g, traffic, "cores", 0.5);
    ASSERT_EQ(curve.points.size(), 5u);

    for (const DegradationPoint& pt : curve.points) {
        sim::SimOptions opts;
        opts.duration = 0.05;
        opts.seed = 7;
        if (pt.engines_failed > 0)
            opts.faults.events.push_back(
                engine_fail(0.0, "cores", pt.engines_failed));
        const auto res = sim::simulate(hw, g, traffic, opts);
        const double model = pt.achieved.gbps();
        EXPECT_NEAR(res.delivered.gbps(), model, 0.06 * model + 0.3)
            << pt.engines_failed << " engines failed";
    }
}

TEST(ApplyFaultsAt, ReplaysTheTimelineHonoringDurations)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    FaultPlan plan;
    plan.events.push_back(engine_fail(0.01, "cores", 4, /*duration=*/0.01));

    // Before the fault: untouched (parallelism 0 = all engines).
    auto before = apply_faults_at(plan, 0.005, hw, g);
    const auto vid = *before.graph.find_vertex("cores");
    EXPECT_EQ(before.graph.vertex(vid).params.parallelism, 0u);

    // During the outage window: 4 of 8 engines gone.
    auto during = apply_faults_at(plan, 0.015, hw, g);
    EXPECT_EQ(during.graph.vertex(vid).params.parallelism, 4u);

    // After the repair: back to full strength.
    auto after = apply_faults_at(plan, 0.025, hw, g);
    EXPECT_EQ(after.graph.vertex(vid).params.parallelism, 0u);
}

TEST(ApplyFaultsAt, FloorsAFullyFailedVertexAtOneEngine)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    FaultPlan plan;
    plan.events.push_back(engine_fail(0.0, "cores", 50));
    const auto sc = apply_faults_at(plan, 0.01, hw, g);
    EXPECT_EQ(sc.graph.vertex(*sc.graph.find_vertex("cores"))
                  .params.parallelism,
              1u);
}

TEST(ApplyFaultsAt, ScalesSharedLinkBandwidth)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    FaultPlan plan;
    FaultEvent degrade;
    degrade.at = 0.0;
    degrade.kind = FaultKind::kLinkDegrade;
    degrade.target = "memory";
    degrade.factor = 0.5;
    plan.events.push_back(degrade);

    const auto sc = apply_faults_at(plan, 0.01, hw, g);
    EXPECT_DOUBLE_EQ(sc.hw.memory_bandwidth().gbps(),
                     0.5 * hw.memory_bandwidth().gbps());
    EXPECT_DOUBLE_EQ(sc.hw.interface_bandwidth().gbps(),
                     hw.interface_bandwidth().gbps());
}

TEST(ApplyFaultsAt, SlowdownScalesAccelerationAndModelLatency)
{
    const auto hw = test::small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = test::single_stage_graph(hw);
    const auto traffic = test::mtu_traffic(10.0);
    FaultPlan plan;
    FaultEvent slow;
    slow.at = 0.0;
    slow.kind = FaultKind::kSlowdown;
    slow.target = "cores";
    slow.factor = 2.0;
    plan.events.push_back(slow);

    // The slowdown lands in the A_i acceleration factor (C_i / A_i), which
    // the latency model charges as compute time.
    const auto sc = apply_faults_at(plan, 0.01, hw, g);
    EXPECT_DOUBLE_EQ(sc.graph.vertex(*sc.graph.find_vertex("cores"))
                         .params.acceleration,
                     0.5);
    const core::Model base_model(hw);
    const core::Model faulted_model(sc.hw);
    const auto base = base_model.estimate(g, traffic);
    const auto degraded = faulted_model.estimate(sc.graph, traffic);
    EXPECT_GT(degraded.latency.mean.seconds(), base.latency.mean.seconds());
}

TEST(ApplyFaultsAt, OverridesQueueCapacity)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    FaultPlan plan;
    FaultEvent cap;
    cap.at = 0.0;
    cap.kind = FaultKind::kQueueCapacity;
    cap.target = "cores";
    cap.capacity = 3;
    plan.events.push_back(cap);

    const auto sc = apply_faults_at(plan, 0.01, hw, g);
    EXPECT_EQ(sc.graph.vertex(*sc.graph.find_vertex("cores"))
                  .params.queue_capacity,
              3u);
}

TEST(ApplyFaultsAt, UnknownTargetThrowsNamingIt)
{
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    FaultPlan plan;
    plan.events.push_back(engine_fail(0.0, "warp-core", 1));
    try {
        apply_faults_at(plan, 0.01, hw, g);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("warp-core"), std::string::npos)
            << e.what();
    }
}

TEST(FaultTargets, SimulatorAndModelRefuseTheSameTargetsWithOneMessage)
{
    // link_degrade targets a shared link, every other kind an IP or
    // rate-limiter vertex; one rule, so the degraded-mode model refuses
    // what the simulator refuses, with the simulator's message.
    const auto hw = test::small_nic();
    const auto g = test::single_stage_graph(hw);
    const auto event = [](FaultKind kind, const std::string& target) {
        FaultEvent e;
        e.kind = kind;
        e.target = target;
        e.factor = kind == FaultKind::kLinkDegrade ? 0.5 : 1.0;
        return e;
    };
    const std::vector<FaultEvent> refused{
        event(FaultKind::kLinkDegrade, "fabric"),
        event(FaultKind::kLinkDegrade, "cores"),
        event(FaultKind::kEngineFail, "memory"),
        event(FaultKind::kEngineFail, "ingress")};
    for (const FaultEvent& ev : refused) {
        FaultPlan plan;
        plan.events.push_back(ev);
        std::string model;
        std::string simulator;
        try {
            (void)apply_faults_at(plan, 0.0, hw, g);
        } catch (const std::invalid_argument& e) {
            model = e.what();
        }
        sim::SimOptions opts;
        opts.faults = plan;
        try {
            sim::NicSimulator(hw, g, test::mtu_traffic(5.0), opts);
        } catch (const std::invalid_argument& e) {
            simulator = e.what();
        }
        EXPECT_FALSE(simulator.empty()) << ev.target;
        EXPECT_NE(simulator.find("'" + ev.target + "'"), std::string::npos)
            << simulator;
        EXPECT_EQ(model, simulator) << to_string(ev.kind) << " " << ev.target;
    }
    // What both accept.
    FaultPlan accepted;
    accepted.events.push_back(event(FaultKind::kLinkDegrade, "memory"));
    accepted.events.push_back(event(FaultKind::kEngineFail, "cores"));
    EXPECT_NO_THROW((void)apply_faults_at(accepted, 0.0, hw, g));
    sim::SimOptions opts;
    opts.faults = accepted;
    EXPECT_NO_THROW(sim::NicSimulator(hw, g, test::mtu_traffic(5.0), opts));
}

} // namespace
} // namespace lognic::fault
