#include "lognic/apps/panic_models.hpp"

#include <algorithm>
#include <stdexcept>

#include "lognic/devices/panic_proto.hpp"

namespace lognic::apps {

namespace {

/// Model-1 chain unit: calibrated so the credit knee lands at the paper's
/// 5/4/4/4 for traffic profiles 1-4 (see DESIGN.md S5).
const Seconds kChainUnitFixed = Seconds::from_nanos(12.5);
const Bandwidth kChainUnitStream = Bandwidth::from_gbps(250.0);

/// The prototype's switching fabric and central-scheduler buffer share.
const Bandwidth kFabricPort = Bandwidth::from_gbps(100.0);
const Seconds kHop = Seconds::from_nanos(20.0);
const std::uint32_t kSchedulerSlots = 16;

} // namespace

PanicScenario
make_panic_chain(std::vector<core::IpSpec> units, std::uint32_t credits)
{
    if (units.empty() || credits == 0)
        throw std::invalid_argument(
            "make_panic_chain: needs at least one unit and one credit");
    PanicScenario sc{devices::panic_pipelined_chain_hw(std::move(units)),
                     core::ExecutionGraph("panic-model1")};
    core::VertexParams rmt;
    rmt.overhead = kHop;
    core::VertexId prev = sc.graph.add_ip_vertex("rmt", 0, rmt);
    sc.graph.add_edge(sc.graph.add_ingress(), prev);

    core::EdgeParams port;
    port.dedicated_bw = kFabricPort;
    for (core::IpId ip = 1; ip < sc.hw.ip_count(); ++ip) {
        core::VertexParams unit;
        unit.overhead = kHop;
        unit.queue_capacity = kSchedulerSlots;
        unit.credits = credits;
        const core::VertexId v =
            sc.graph.add_ip_vertex(sc.hw.ip(ip).name, ip, unit);
        sc.graph.add_edge(prev, v, port);
        prev = v;
    }
    sc.graph.add_edge(prev, sc.graph.add_egress(), port); // the TX port
    return sc;
}

PanicScenario
make_panic_pipelined_chain(std::uint32_t credits, std::uint32_t stages)
{
    if (credits == 0 || stages == 0)
        throw std::invalid_argument(
            "make_panic_pipelined_chain: credits and stages must be >= 1");
    std::vector<core::IpSpec> units;
    for (std::uint32_t s = 0; s < stages; ++s)
        units.push_back(devices::panic_unit_ip(
            "unit" + std::to_string(s + 1), kChainUnitFixed,
            kChainUnitStream));
    return make_panic_chain(std::move(units), credits);
}

Bandwidth
panic_credit_capacity(const core::HardwareModel& hw,
                      const core::ExecutionGraph& graph, core::VertexId v,
                      Bytes request)
{
    const core::Vertex& vx = graph.vertex(v);
    const auto ins = graph.in_edges(v);
    if (vx.params.credits == 0 || ins.size() != 1
        || !graph.edge(ins[0]).params.dedicated_bw)
        throw std::invalid_argument(
            "panic_credit_capacity: vertex '" + vx.name
            + "' needs credits and one dedicated in-link");
    const core::Edge& in = graph.edge(ins[0]);
    const core::IpSpec& spec = hw.ip(vx.ip);
    const core::ServiceModel& engine = spec.roofline.engine();

    const double service = engine.service_time(request).seconds();
    const double rtt = graph.vertex(in.from).params.overhead.seconds()
        + vx.params.overhead.seconds()
        + (request / *in.params.dedicated_bw).seconds();
    const double window_bytes_per_sec =
        static_cast<double>(vx.params.credits) * request.bytes()
        / (service + rtt);
    const std::uint32_t engines = vx.params.parallelism > 0
        ? vx.params.parallelism
        : spec.max_engines;
    const Bandwidth compute =
        engine.throughput(request) * static_cast<double>(engines);
    return std::min(compute,
                    Bandwidth::from_bytes_per_sec(window_bytes_per_sec));
}

Bytes
mean_request_size(const core::TrafficProfile& traffic)
{
    // Byte weights w_i at size s_i give packet counts proportional to
    // w_i / s_i; the packet-count mean size is total bytes / total packets.
    double count = 0.0;
    for (const auto& c : traffic.classes())
        count += c.weight / c.size.bytes();
    return Bytes{1.0 / count};
}

Bandwidth
lognic_panic_chain_capacity(const core::TrafficProfile& traffic,
                            std::uint32_t credits, std::uint32_t stages)
{
    const PanicScenario sc = make_panic_pipelined_chain(credits, stages);
    const Bytes request = mean_request_size(traffic);
    Bandwidth capacity = kFabricPort;
    for (core::VertexId v = 0; v < sc.graph.vertex_count(); ++v) {
        if (sc.graph.vertex(v).params.credits > 0)
            capacity = std::min(
                capacity, panic_credit_capacity(sc.hw, sc.graph, v, request));
    }
    return capacity;
}

std::uint32_t
lognic_optimal_credits(const core::TrafficProfile& traffic,
                       std::uint32_t max_credits, double tolerance)
{
    const Bandwidth saturated =
        lognic_panic_chain_capacity(traffic, max_credits);
    for (std::uint32_t c = 1; c < max_credits; ++c) {
        const Bandwidth cap = lognic_panic_chain_capacity(traffic, c);
        if (cap.bits_per_sec()
            >= (1.0 - tolerance) * saturated.bits_per_sec())
            return c;
    }
    return max_credits;
}

PanicScenario
make_panic_parallel_chain(double a2_percent)
{
    if (a2_percent <= 0.0 || a2_percent >= 80.0)
        throw std::invalid_argument(
            "make_panic_parallel_chain: A2 share must be in (0, 80)");
    PanicScenario sc{devices::panic_parallel_chain_hw(),
                     core::ExecutionGraph("panic-model2")};
    const auto ingress = sc.graph.add_ingress();
    const auto egress = sc.graph.add_egress();
    const auto a1 = sc.graph.add_ip_vertex("a1", *sc.hw.find_ip("a1"));
    const auto a2 = sc.graph.add_ip_vertex("a2", *sc.hw.find_ip("a2"));
    const auto a3 = sc.graph.add_ip_vertex("a3", *sc.hw.find_ip("a3"));

    const double x = a2_percent / 100.0;
    sc.graph.add_edge(ingress, a1, core::EdgeParams{0.20, 0.0, 0.0, {}});
    sc.graph.add_edge(ingress, a2, core::EdgeParams{x, 0.0, 0.0, {}});
    sc.graph.add_edge(ingress, a3,
                      core::EdgeParams{0.80 - x, 0.0, 0.0, {}});
    sc.graph.add_edge(a1, egress, core::EdgeParams{0.20, 0.0, 0.0, {}});
    sc.graph.add_edge(a2, egress, core::EdgeParams{x, 0.0, 0.0, {}});
    sc.graph.add_edge(a3, egress,
                      core::EdgeParams{0.80 - x, 0.0, 0.0, {}});
    return sc;
}

PanicScenario
make_panic_hybrid(double ip3_fraction, std::uint32_t ip4_parallelism)
{
    if (ip3_fraction < 0.0 || ip3_fraction > 1.0)
        throw std::invalid_argument(
            "make_panic_hybrid: split fraction must be in [0, 1]");
    if (ip4_parallelism == 0 || ip4_parallelism > 8)
        throw std::invalid_argument(
            "make_panic_hybrid: IP4 parallelism must be 1..8");

    PanicScenario sc{devices::panic_hybrid_chain_hw(),
                     core::ExecutionGraph("panic-model3")};
    const auto ingress = sc.graph.add_ingress();
    const auto egress = sc.graph.add_egress();
    const auto ip1 = sc.graph.add_ip_vertex("ip1", *sc.hw.find_ip("ip1"));
    const auto ip2 = sc.graph.add_ip_vertex("ip2", *sc.hw.find_ip("ip2"));
    const auto ip3 = sc.graph.add_ip_vertex("ip3", *sc.hw.find_ip("ip3"));
    core::VertexParams ip4_params;
    ip4_params.parallelism = ip4_parallelism;
    const auto ip4 =
        sc.graph.add_ip_vertex("ip4", *sc.hw.find_ip("ip4"), ip4_params);

    const double to_ip1 = 0.7;
    const double to_ip2 = 0.3;
    const double d13 = to_ip1 * ip3_fraction;
    const double d14 = to_ip1 * (1.0 - ip3_fraction);
    sc.graph.add_edge(ingress, ip1, core::EdgeParams{to_ip1, 0, 0, {}});
    sc.graph.add_edge(ingress, ip2, core::EdgeParams{to_ip2, 0, 0, {}});
    sc.graph.add_edge(ip1, ip3, core::EdgeParams{d13, 0, 0, {}});
    sc.graph.add_edge(ip1, ip4, core::EdgeParams{d14, 0, 0, {}});
    sc.graph.add_edge(ip2, ip4, core::EdgeParams{to_ip2, 0, 0, {}});
    sc.graph.add_edge(ip3, egress, core::EdgeParams{d13, 0, 0, {}});
    sc.graph.add_edge(ip4, egress,
                      core::EdgeParams{d14 + to_ip2, 0, 0, {}});
    return sc;
}

} // namespace lognic::apps
