/**
 * @file
 * Fault injection through the packet-level simulators: every fault kind
 * observably bends the measured behavior in the right direction, packet
 * conservation holds under fire, and the empty plan stays bit-identical
 * to a fault-free run.
 */
#include <gtest/gtest.h>

#include <limits>

#include "../test_helpers.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/devices/panic_proto.hpp"
#include "lognic/fault/degradation.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::fault {
namespace {

using test::mtu_traffic;
using test::single_stage_graph;
using test::small_nic;

sim::SimOptions
quick(std::uint64_t seed = 7)
{
    sim::SimOptions o;
    o.duration = 0.03;
    o.seed = seed;
    return o;
}

FaultEvent
event(FaultKind kind, double at, const std::string& target)
{
    FaultEvent e;
    e.kind = kind;
    e.at = at;
    e.target = target;
    return e;
}

void
expect_conserved(const sim::SimResult& r)
{
    EXPECT_EQ(r.generated,
              r.completed_total + r.dropped_total + r.in_flight);
}

TEST(FaultSim, EmptyPlanIsBitIdenticalToNoPlan)
{
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    const auto plain = sim::simulate(hw, g, mtu_traffic(10.0), quick());
    sim::SimOptions with_empty = quick();
    with_empty.faults = FaultPlan{};
    const auto faulted = sim::simulate(hw, g, mtu_traffic(10.0), with_empty);
    EXPECT_EQ(plain.generated, faulted.generated);
    EXPECT_EQ(plain.completed, faulted.completed);
    EXPECT_EQ(plain.dropped, faulted.dropped);
    EXPECT_DOUBLE_EQ(plain.mean_latency.seconds(),
                     faulted.mean_latency.seconds());
    EXPECT_DOUBLE_EQ(plain.p99_latency.seconds(),
                     faulted.p99_latency.seconds());
    EXPECT_DOUBLE_EQ(plain.delivered.gbps(), faulted.delivered.gbps());
}

TEST(FaultSim, EngineFailureCutsThroughput)
{
    // 8 engines at ~8.7 Gbps each; offered 30 Gbps needs 4. Losing 6
    // engines at one third of the run leaves 2 (~17 Gbps): delivery must
    // drop and drops must be attributed.
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = single_stage_graph(hw);
    const auto base = sim::simulate(hw, g, mtu_traffic(30.0), quick());

    sim::SimOptions o = quick();
    auto fail = event(FaultKind::kEngineFail, 0.01, "cores");
    fail.count = 6;
    o.faults.events.push_back(fail);
    const auto res = sim::simulate(hw, g, mtu_traffic(30.0), o);

    EXPECT_LT(res.delivered.gbps(), base.delivered.gbps() - 3.0);
    EXPECT_GT(res.metrics.counter_or_zero("sim.fault_events"), 0u);
    EXPECT_GT(res.metrics.counter_or_zero("sim.dropped_by_cause.overflow"),
              0u);
    expect_conserved(res);
}

TEST(FaultSim, RecoveryRestoresCapacity)
{
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = single_stage_graph(hw);

    sim::SimOptions permanent = quick();
    auto fail = event(FaultKind::kEngineFail, 0.005, "cores");
    fail.count = 7;
    permanent.faults.events.push_back(fail);

    sim::SimOptions transient = quick();
    fail.duration = 0.005; // auto-recover at t = 0.01 of 0.03
    transient.faults.events.push_back(fail);

    const auto res_perm = sim::simulate(hw, g, mtu_traffic(30.0), permanent);
    const auto res_tran = sim::simulate(hw, g, mtu_traffic(30.0), transient);
    EXPECT_GT(res_tran.delivered.gbps(), res_perm.delivered.gbps() + 3.0);
    expect_conserved(res_perm);
    expect_conserved(res_tran);
}

TEST(FaultSim, InServiceDropPolicyCountsEngineFailDrops)
{
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = single_stage_graph(hw);
    sim::SimOptions o = quick();
    o.faults.in_service_policy = InServicePolicy::kDrop;
    auto fail = event(FaultKind::kEngineFail, 0.01, "cores");
    fail.count = 8; // kill everything: whoever is on an engine is lost
    o.faults.events.push_back(fail);
    const auto res = sim::simulate(hw, g, mtu_traffic(20.0), o);
    EXPECT_GT(
        res.metrics.counter_or_zero("sim.dropped_by_cause.engine_fail"), 0u);
    expect_conserved(res);
}

TEST(FaultSim, HugeEngineFailCountSaturatesAtEveryEngine)
{
    // 2 of the 8 engines fail at 1 ms, then 2^32 - 1 more at 2 ms. The
    // offline count must saturate at 8, not wrap to 1: the vertex goes
    // down exactly as when the second count is 8.
    constexpr std::uint32_t kHuge = std::numeric_limits<std::uint32_t>::max();
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    const auto plan = [](std::uint32_t second) {
        FaultPlan p;
        auto first = event(FaultKind::kEngineFail, 0.001, "cores");
        first.count = 2;
        p.events.push_back(first);
        auto rest = event(FaultKind::kEngineFail, 0.002, "cores");
        rest.count = second;
        p.events.push_back(rest);
        return p;
    };
    const auto run = [&](std::uint32_t second) {
        sim::SimOptions o = quick();
        o.duration = 0.02;
        o.faults = plan(second);
        return sim::simulate(hw, g, mtu_traffic(5.0), o);
    };
    const auto huge = run(kHuge);
    const auto eight = run(8);
    EXPECT_EQ(eight.delivered.gbps(), 0.0);
    EXPECT_GT(eight.dropped, 0u);
    EXPECT_EQ(huge.delivered.gbps(), eight.delivered.gbps());
    EXPECT_EQ(huge.dropped, eight.dropped);
    EXPECT_EQ(huge.dropped_total, eight.dropped_total);
    expect_conserved(huge);

    // The model's replay sums counts in int64 and agrees: fully failed
    // (floored at one engine, as apply_faults_at documents).
    const auto engines_at = [&](std::uint32_t second, double t) {
        const auto sc = apply_faults_at(plan(second), t, hw, g);
        return sc.graph.vertex(*sc.graph.find_vertex("cores"))
            .params.parallelism;
    };
    EXPECT_EQ(engines_at(kHuge, 0.0015), 6u);
    EXPECT_EQ(engines_at(kHuge, 0.003), 1u);
    EXPECT_EQ(engines_at(8, 0.003), 1u);
}

TEST(FaultSim, SlowdownInflatesLatency)
{
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    const auto base = sim::simulate(hw, g, mtu_traffic(5.0), quick());

    sim::SimOptions o = quick();
    auto slow = event(FaultKind::kSlowdown, 0.0, "cores");
    slow.factor = 3.0;
    o.faults.events.push_back(slow);
    const auto res = sim::simulate(hw, g, mtu_traffic(5.0), o);
    EXPECT_GT(res.mean_latency.seconds(),
              1.5 * base.mean_latency.seconds());
    expect_conserved(res);
}

TEST(FaultSim, DropBurstLosesPacketsWithCause)
{
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    sim::SimOptions o = quick();
    auto burst = event(FaultKind::kDropBurst, 0.01, "cores");
    burst.probability = 0.5;
    burst.duration = 0.01;
    o.faults.events.push_back(burst);
    const auto res = sim::simulate(hw, g, mtu_traffic(10.0), o);
    EXPECT_GT(res.metrics.counter_or_zero("sim.dropped_by_cause.burst"), 0u);
    expect_conserved(res);
}

TEST(FaultSim, LinkDegradationShapesTransfers)
{
    // Memory-bound pipeline (two crossings per packet): halving the
    // memory link halves the sustainable rate.
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    core::ExecutionGraph g("memory-bound");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto v = g.add_ip_vertex("cores", *hw.find_ip("cores"));
    g.add_edge(in, v, core::EdgeParams{1.0, 0.0, 1.0, {}});
    g.add_edge(v, out, core::EdgeParams{1.0, 0.0, 1.0, {}});

    const auto base = sim::simulate(hw, g, mtu_traffic(36.0), quick());
    sim::SimOptions o = quick();
    auto degrade = event(FaultKind::kLinkDegrade, 0.0, "memory");
    degrade.factor = 0.5;
    o.faults.events.push_back(degrade);
    const auto res = sim::simulate(hw, g, mtu_traffic(36.0), o);
    // 80 Gbps / 2 crossings = 40 sustainable before; 20 after.
    EXPECT_NEAR(base.delivered.gbps(), 36.0, 2.0);
    EXPECT_LT(res.delivered.gbps(), 24.0);
    expect_conserved(res);
}

TEST(FaultSim, QueueCapacityReductionCausesOverflow)
{
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = single_stage_graph(hw);
    const auto base = sim::simulate(hw, g, mtu_traffic(30.0), quick());

    sim::SimOptions o = quick();
    auto shrink = event(FaultKind::kQueueCapacity, 0.005, "cores");
    shrink.capacity = 1;
    o.faults.events.push_back(shrink);
    const auto res = sim::simulate(hw, g, mtu_traffic(30.0), o);
    EXPECT_GT(res.metrics.counter_or_zero("sim.dropped_by_cause.overflow"),
              base.metrics.counter_or_zero("sim.dropped_by_cause.overflow"));
    expect_conserved(res);
}

TEST(FaultSim, UnknownTargetThrowsAtConstruction)
{
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    sim::SimOptions o = quick();
    o.faults.events.push_back(
        event(FaultKind::kEngineFail, 0.01, "warp-core"));
    try {
        sim::NicSimulator bad(hw, g, mtu_traffic(5.0), o);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("warp-core"),
                  std::string::npos)
            << e.what();
    }
    // Link events only accept the reserved shared-link names.
    sim::SimOptions o2 = quick();
    auto degrade = event(FaultKind::kLinkDegrade, 0.0, "cores");
    degrade.factor = 0.5;
    o2.faults.events.push_back(degrade);
    EXPECT_THROW(sim::NicSimulator(hw, g, mtu_traffic(5.0), o2),
                 std::invalid_argument);
}

TEST(FaultSim, FaultedRunsAreSeedDeterministic)
{
    const auto hw = small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = single_stage_graph(hw);
    sim::SimOptions o = quick(99);
    o.faults = fault_plan_from_json(io::Json::parse(
        R"({"faults": [
             {"at": 0.005, "kind": "engine_fail", "target": "cores",
              "count": 5, "duration": 0.01},
             {"at": 0.012, "kind": "drop_burst", "target": "cores",
              "probability": 0.3, "duration": 0.004}],
            "in_service_policy": "drop"})"));
    const auto a = sim::simulate(hw, g, mtu_traffic(25.0), o);
    const auto b = sim::simulate(hw, g, mtu_traffic(25.0), o);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.completed_total, b.completed_total);
    EXPECT_EQ(a.dropped_total, b.dropped_total);
    EXPECT_DOUBLE_EQ(a.mean_latency.seconds(), b.mean_latency.seconds());
    EXPECT_DOUBLE_EQ(a.delivered.gbps(), b.delivered.gbps());
    expect_conserved(a);
}

TEST(FaultSim, FaultInstantsAppearOnTraceTimeline)
{
    const auto hw = small_nic();
    const auto g = single_stage_graph(hw);
    sim::SimOptions o = quick();
    auto fail = event(FaultKind::kEngineFail, 0.01, "cores");
    fail.duration = 0.005;
    o.faults.events.push_back(fail);
    obs::ChromeTraceWriter writer;
    o.trace.sink = &writer;
    (void)sim::simulate(hw, g, mtu_traffic(5.0), o);
    const std::string doc = writer.dump();
    EXPECT_NE(doc.find("faults"), std::string::npos);
    EXPECT_NE(doc.find("engine_fail:cores"), std::string::npos);
}

// --- PANIC ------------------------------------------------------------------

/// Model 1 over two heterogeneous units, each behind an 8-credit window.
apps::PanicScenario
panic_two_units()
{
    return apps::make_panic_chain(
        {devices::panic_unit_ip("crypto", Seconds::from_nanos(120.0),
                                Bandwidth::from_gbps(100.0), 2),
         devices::panic_unit_ip("compress", Seconds::from_nanos(200.0),
                                Bandwidth::from_gbps(80.0), 2)},
        8);
}

TEST(FaultPanic, EmptyPlanIsBitIdentical)
{
    const auto sc = panic_two_units();
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{512.0}, Bandwidth::from_gbps(20.0));
    sim::SimOptions o;
    o.duration = 0.01;
    const auto plain = sim::simulate(sc.hw, sc.graph, traffic, o);
    o.faults = FaultPlan{};
    const auto faulted = sim::simulate(sc.hw, sc.graph, traffic, o);
    EXPECT_EQ(plain.generated, faulted.generated);
    EXPECT_EQ(plain.completed, faulted.completed);
    EXPECT_EQ(plain.events_executed, faulted.events_executed);
    EXPECT_DOUBLE_EQ(plain.mean_latency.seconds(),
                     faulted.mean_latency.seconds());
}

TEST(FaultPanic, UnitFailureDegradesAndConserves)
{
    const auto sc = panic_two_units();
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{512.0}, Bandwidth::from_gbps(25.0));
    sim::SimOptions o;
    o.duration = 0.01;
    const auto base = sim::simulate(sc.hw, sc.graph, traffic, o);

    auto fail = event(FaultKind::kEngineFail, 0.003, "crypto");
    fail.count = 1;
    o.faults.events.push_back(fail);
    const auto res = sim::simulate(sc.hw, sc.graph, traffic, o);
    EXPECT_LT(res.delivered.gbps(), base.delivered.gbps());
    EXPECT_GT(res.metrics.counter_or_zero("sim.fault_events"), 0u);
    expect_conserved(res);

    // Determinism of the faulted run.
    const auto res2 = sim::simulate(sc.hw, sc.graph, traffic, o);
    EXPECT_EQ(res.generated, res2.generated);
    EXPECT_EQ(res.completed_total, res2.completed_total);
    EXPECT_DOUBLE_EQ(res.delivered.gbps(), res2.delivered.gbps());

    // Requests lost with their engine give their credits back: under
    // the drop policy the window still carries traffic afterwards.
    o.faults.in_service_policy = InServicePolicy::kDrop;
    fail.count = 2;
    fail.duration = 0.001;
    o.faults.events = {fail};
    const auto dropped = sim::simulate(sc.hw, sc.graph, traffic, o);
    EXPECT_GT(dropped.metrics.counter_or_zero(
                  "sim.dropped_by_cause.engine_fail"),
              0u);
    EXPECT_GT(dropped.delivered.gbps(), 0.8 * base.delivered.gbps());
    expect_conserved(dropped);

    // Unknown unit targets throw at construction.
    sim::SimOptions bad;
    bad.duration = 0.01;
    bad.faults.events.push_back(
        event(FaultKind::kEngineFail, 0.001, "no-such-unit"));
    EXPECT_THROW(sim::simulate(sc.hw, sc.graph, traffic, bad),
                 std::invalid_argument);
}

} // namespace
} // namespace lognic::fault
