#include "lognic/io/serialize.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "lognic/apps/nvmeof.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/core/extensions.hpp"
#include "lognic/core/model.hpp"

namespace lognic::io {
namespace {

void
expect_same_estimates(const core::HardwareModel& hw_a,
                      const core::ExecutionGraph& g_a,
                      const core::HardwareModel& hw_b,
                      const core::ExecutionGraph& g_b,
                      const core::TrafficProfile& traffic)
{
    const core::Report a = core::Model(hw_a).estimate(g_a, traffic);
    const core::Report b = core::Model(hw_b).estimate(g_b, traffic);
    EXPECT_DOUBLE_EQ(a.throughput.capacity.bits_per_sec(),
                     b.throughput.capacity.bits_per_sec());
    EXPECT_DOUBLE_EQ(a.latency.mean.seconds(), b.latency.mean.seconds());
}

TEST(Serialize, HardwareModelRoundTrip)
{
    const core::HardwareModel hw = test::small_nic();
    const core::HardwareModel back =
        hardware_from_json(to_json(hw));
    EXPECT_EQ(back.name(), hw.name());
    EXPECT_DOUBLE_EQ(back.interface_bandwidth().gbps(),
                     hw.interface_bandwidth().gbps());
    EXPECT_DOUBLE_EQ(back.memory_bandwidth().gbps(),
                     hw.memory_bandwidth().gbps());
    EXPECT_DOUBLE_EQ(back.line_rate().gbps(), hw.line_rate().gbps());
    ASSERT_EQ(back.ip_count(), hw.ip_count());
    for (core::IpId i = 0; i < hw.ip_count(); ++i) {
        EXPECT_EQ(back.ip(i).name, hw.ip(i).name);
        EXPECT_EQ(back.ip(i).kind, hw.ip(i).kind);
        EXPECT_EQ(back.ip(i).max_engines, hw.ip(i).max_engines);
        EXPECT_DOUBLE_EQ(
            back.ip(i).roofline.engine().fixed_cost.seconds(),
            hw.ip(i).roofline.engine().fixed_cost.seconds());
        EXPECT_EQ(back.ip(i).roofline.ceilings().size(),
                  hw.ip(i).roofline.ceilings().size());
    }
}

TEST(Serialize, ServiceScvRoundTrips)
{
    core::HardwareModel hw = test::small_nic();
    core::IpSpec det;
    det.name = "pipeline-unit";
    det.kind = core::IpKind::kAccelerator;
    det.roofline = core::ExtendedRoofline(
        core::ServiceModel{Seconds::from_nanos(100.0),
                           Bandwidth::from_gbps(100.0)},
        {});
    det.service_scv = 0.0;
    hw.add_ip(det);
    const auto back = hardware_from_json(to_json(hw));
    EXPECT_DOUBLE_EQ(back.ip(*back.find_ip("pipeline-unit")).service_scv,
                     0.0);
    EXPECT_DOUBLE_EQ(back.ip(*back.find_ip("cores")).service_scv, 1.0);
}

TEST(Serialize, IpLinksRoundTrip)
{
    core::HardwareModel hw = test::small_nic();
    hw.set_ip_bandwidth(0, 1, Bandwidth::from_gbps(33.0));
    const core::HardwareModel back = hardware_from_json(to_json(hw));
    const auto bw = back.ip_bandwidth(0, 1);
    ASSERT_TRUE(bw.has_value());
    EXPECT_DOUBLE_EQ(bw->gbps(), 33.0);
}

TEST(Serialize, GraphRoundTripPreservesEstimates)
{
    const core::HardwareModel hw = test::small_nic();
    core::ExecutionGraph g = test::two_stage_graph(hw);
    g.vertex(*g.find_vertex("cores")).params.parallelism = 4;
    g.vertex(*g.find_vertex("cores")).params.overhead =
        Seconds::from_micros(0.7);
    g.edge(1).params.dedicated_bw = Bandwidth::from_gbps(18.0);

    const core::ExecutionGraph back = graph_from_json(to_json(g));
    EXPECT_EQ(back.vertex_count(), g.vertex_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    expect_same_estimates(hw, g, hw, back, test::mtu_traffic(10.0));
}

TEST(Serialize, RateLimiterGraphRoundTrips)
{
    const core::HardwareModel hw = test::small_nic();
    core::ExecutionGraph g = test::single_stage_graph(hw);
    core::insert_rate_limiter(g, *g.find_vertex("cores"),
                              Bandwidth::from_gbps(4.0), 12);
    const core::ExecutionGraph back = graph_from_json(to_json(g));
    expect_same_estimates(hw, g, hw, back, test::mtu_traffic(10.0));
}

TEST(Serialize, TrafficProfileRoundTrip)
{
    const auto traffic = core::TrafficProfile::mixed(
        {{Bytes{64.0}, 0.25}, {Bytes{1500.0}, 0.75}},
        Bandwidth::from_gbps(12.5));
    const auto back = traffic_from_json(to_json(traffic));
    ASSERT_EQ(back.classes().size(), 2u);
    EXPECT_DOUBLE_EQ(back.classes()[0].weight, 0.25);
    EXPECT_DOUBLE_EQ(back.classes()[1].size.bytes(), 1500.0);
    EXPECT_DOUBLE_EQ(back.ingress_bandwidth().gbps(), 12.5);
}

TEST(Serialize, ScenarioStringRoundTrip)
{
    const Scenario scenario{test::small_nic(),
                            test::two_stage_graph(test::small_nic()),
                            test::mtu_traffic(8.0)};
    const std::string text = save_scenario(scenario);
    const Scenario back = load_scenario(text);
    expect_same_estimates(scenario.hw, scenario.graph, back.hw, back.graph,
                          scenario.traffic);
    // And the traffic itself round-trips.
    EXPECT_DOUBLE_EQ(back.traffic.ingress_bandwidth().gbps(), 8.0);
}

TEST(Serialize, CaseStudyGraphsRoundTrip)
{
    // A fan-out/fan-in case-study graph survives the trip with identical
    // model outputs.
    const auto sc = apps::make_panic_hybrid(0.5, 4);
    const auto hw_back = hardware_from_json(to_json(sc.hw));
    const auto g_back = graph_from_json(to_json(sc.graph));
    expect_same_estimates(sc.hw, sc.graph, hw_back, g_back,
                          test::mtu_traffic(80.0));

    // Credit windows round-trip, and are written only where set, so a
    // window-free document keeps its bytes.
    EXPECT_EQ(to_json(sc.graph).dump().find("credits"), std::string::npos);
    const auto chain = apps::make_panic_pipelined_chain(5);
    const Json doc = to_json(chain.graph);
    const core::ExecutionGraph chain_back = graph_from_json(doc);
    for (core::VertexId v = 0; v < chain.graph.vertex_count(); ++v)
        EXPECT_EQ(chain_back.vertex(v).params.credits,
                  chain.graph.vertex(v).params.credits);
    EXPECT_EQ(to_json(chain_back).dump(), doc.dump());
    // A window on a non-IP vertex survives parsing so validation sees it.
    core::ExecutionGraph bad = chain.graph;
    bad.vertex(bad.ingress_vertices()[0]).params.credits = 2;
    EXPECT_THROW(graph_from_json(to_json(bad)).validate(chain.hw),
                 std::invalid_argument);
}

TEST(Serialize, SojournCurveIsDroppedWithNotice)
{
    // The curve is a callable and cannot be serialized; the round-tripped
    // spec keeps every other parameter but loses the override.
    const ssd::SsdGroundTruth drive;
    const auto workload = traffic::random_read_4k();
    const auto calib = ssd::calibrate(drive.characterize(workload, 12),
                                      workload.block_size);
    const auto scenario = apps::make_nvmeof_target(calib, workload);
    const auto back = hardware_from_json(to_json(scenario.hw));
    const auto ssd_ip = back.find_ip("ssd");
    ASSERT_TRUE(ssd_ip.has_value());
    EXPECT_EQ(back.ip(*ssd_ip).sojourn_curve, nullptr);
    EXPECT_EQ(back.ip(*ssd_ip).max_engines,
              scenario.hw.ip(*scenario.hw.find_ip("ssd")).max_engines);
}

TEST(Serialize, MalformedDocumentsThrow)
{
    EXPECT_THROW(hardware_from_json(Json::parse("{}")),
                 std::runtime_error);
    EXPECT_THROW(graph_from_json(Json::parse(R"({"name":"x"})")),
                 std::runtime_error);
    EXPECT_THROW(
        traffic_from_json(Json::parse(R"({"ingress_gbps": 1})")),
        std::runtime_error);
    // Unknown enum names are rejected.
    EXPECT_THROW(
        graph_from_json(Json::parse(
            R"({"name":"x","vertices":[{"name":"a","kind":"warp"}],)"
            R"("edges":[]})")),
        std::runtime_error);
}

} // namespace
} // namespace lognic::io
