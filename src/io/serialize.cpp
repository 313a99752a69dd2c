#include "lognic/io/serialize.hpp"

#include <stdexcept>

namespace lognic::io {

namespace {

const char*
kind_name(core::IpKind kind)
{
    return core::to_string(kind);
}

core::IpKind
kind_from_name(const std::string& name)
{
    for (core::IpKind k :
         {core::IpKind::kCpuCores, core::IpKind::kAccelerator,
          core::IpKind::kStorage, core::IpKind::kDsp}) {
        if (name == core::to_string(k))
            return k;
    }
    throw std::runtime_error("serialize: unknown IP kind '" + name + "'");
}

const char*
vertex_kind_name(core::VertexKind kind)
{
    return core::to_string(kind);
}

core::VertexKind
vertex_kind_from_name(const std::string& name)
{
    for (core::VertexKind k :
         {core::VertexKind::kIngress, core::VertexKind::kEgress,
          core::VertexKind::kIp, core::VertexKind::kRateLimiter}) {
        if (name == core::to_string(k))
            return k;
    }
    throw std::runtime_error("serialize: unknown vertex kind '" + name
                             + "'");
}

} // namespace

Json
to_json(const core::HardwareModel& hw)
{
    Json ips{JsonArray{}};
    for (core::IpId id = 0; id < hw.ip_count(); ++id) {
        const core::IpSpec& spec = hw.ip(id);
        Json ceilings{JsonArray{}};
        for (const auto& c : spec.roofline.ceilings()) {
            Json jc;
            jc.set("name", c.name);
            jc.set("gbps", c.bw.gbps());
            ceilings.push_back(std::move(jc));
        }
        Json jip;
        jip.set("name", spec.name);
        jip.set("kind", kind_name(spec.kind));
        jip.set("fixed_cost_us", spec.roofline.engine().fixed_cost.micros());
        jip.set("byte_rate_gbps", spec.roofline.engine().byte_rate.gbps());
        jip.set("ceilings", std::move(ceilings));
        jip.set("max_engines", static_cast<int>(spec.max_engines));
        jip.set("default_queue_capacity",
                static_cast<int>(spec.default_queue_capacity));
        jip.set("service_scv", spec.service_scv);
        ips.push_back(std::move(jip));
    }

    Json j;
    j.set("name", hw.name());
    j.set("interface_gbps", hw.interface_bandwidth().gbps());
    j.set("memory_gbps", hw.memory_bandwidth().gbps());
    j.set("line_rate_gbps", hw.line_rate().gbps());
    j.set("ips", std::move(ips));

    // Characterized IP-IP links.
    Json links{JsonArray{}};
    for (core::IpId a = 0; a < hw.ip_count(); ++a) {
        for (core::IpId b = a + 1; b < hw.ip_count(); ++b) {
            if (const auto bw = hw.ip_bandwidth(a, b)) {
                Json jl;
                jl.set("a", hw.ip(a).name);
                jl.set("b", hw.ip(b).name);
                jl.set("gbps", bw->gbps());
                links.push_back(std::move(jl));
            }
        }
    }
    j.set("ip_links", std::move(links));
    return j;
}

core::HardwareModel
hardware_from_json(const Json& j)
{
    core::HardwareModel hw(
        j.at("name").as_string(),
        Bandwidth::from_gbps(j.at("interface_gbps").as_number()),
        Bandwidth::from_gbps(j.at("memory_gbps").as_number()),
        Bandwidth::from_gbps(j.at("line_rate_gbps").as_number()));

    for (const Json& jip : j.at("ips").as_array()) {
        core::ServiceModel engine;
        engine.fixed_cost =
            Seconds::from_micros(jip.at("fixed_cost_us").as_number());
        engine.byte_rate =
            Bandwidth::from_gbps(jip.at("byte_rate_gbps").as_number());
        std::vector<core::BandwidthCeiling> ceilings;
        for (const Json& jc : jip.at("ceilings").as_array()) {
            ceilings.push_back(core::BandwidthCeiling{
                jc.at("name").as_string(),
                Bandwidth::from_gbps(jc.at("gbps").as_number())});
        }
        core::IpSpec spec;
        spec.name = jip.at("name").as_string();
        spec.kind = kind_from_name(jip.at("kind").as_string());
        spec.roofline =
            core::ExtendedRoofline(engine, std::move(ceilings));
        spec.max_engines = uint_at<std::uint32_t>(jip, "max_engines");
        spec.default_queue_capacity =
            uint_at<std::uint32_t>(jip, "default_queue_capacity");
        spec.service_scv = jip.number_or("service_scv", 1.0);
        hw.add_ip(std::move(spec));
    }

    if (j.contains("ip_links")) {
        for (const Json& jl : j.at("ip_links").as_array()) {
            const auto a = hw.find_ip(jl.at("a").as_string());
            const auto b = hw.find_ip(jl.at("b").as_string());
            if (!a || !b)
                throw std::runtime_error(
                    "serialize: ip_link references unknown IP");
            hw.set_ip_bandwidth(
                *a, *b, Bandwidth::from_gbps(jl.at("gbps").as_number()));
        }
    }
    return hw;
}

Json
to_json(const core::ExecutionGraph& graph)
{
    Json vertices{JsonArray{}};
    for (core::VertexId v = 0; v < graph.vertex_count(); ++v) {
        const core::Vertex& vx = graph.vertex(v);
        Json jv;
        jv.set("name", vx.name);
        jv.set("kind", vertex_kind_name(vx.kind));
        if (vx.kind == core::VertexKind::kIp)
            jv.set("ip", static_cast<int>(vx.ip));
        if (vx.kind == core::VertexKind::kRateLimiter)
            jv.set("rate_limit_gbps", vx.rate_limit.gbps());
        jv.set("parallelism", static_cast<int>(vx.params.parallelism));
        jv.set("queue_capacity",
               static_cast<int>(vx.params.queue_capacity));
        jv.set("partition", vx.params.partition);
        jv.set("overhead_us", vx.params.overhead.micros());
        jv.set("acceleration", vx.params.acceleration);
        jv.set("per_input_queues", Json{vx.params.per_input_queues});
        // Written only when set, so a document without a credit window
        // keeps its exact bytes.
        if (vx.params.credits > 0)
            jv.set("credits", static_cast<int>(vx.params.credits));
        vertices.push_back(std::move(jv));
    }

    Json edges{JsonArray{}};
    for (core::EdgeId e = 0; e < graph.edge_count(); ++e) {
        const core::Edge& ed = graph.edge(e);
        Json je;
        je.set("from", static_cast<int>(ed.from));
        je.set("to", static_cast<int>(ed.to));
        je.set("delta", ed.params.delta);
        je.set("alpha", ed.params.alpha);
        je.set("beta", ed.params.beta);
        if (ed.params.dedicated_bw)
            je.set("dedicated_gbps", ed.params.dedicated_bw->gbps());
        edges.push_back(std::move(je));
    }

    Json j;
    j.set("name", graph.name());
    j.set("vertices", std::move(vertices));
    j.set("edges", std::move(edges));
    return j;
}

core::ExecutionGraph
graph_from_json(const Json& j)
{
    core::ExecutionGraph graph(j.at("name").as_string());
    for (const Json& jv : j.at("vertices").as_array()) {
        const auto kind = vertex_kind_from_name(jv.at("kind").as_string());
        const std::string name = jv.at("name").as_string();
        core::VertexParams params;
        params.parallelism = uint_or<std::uint32_t>(jv, "parallelism", 0);
        params.queue_capacity =
            uint_or<std::uint32_t>(jv, "queue_capacity", 0);
        params.partition = jv.number_or("partition", 1.0);
        params.overhead =
            Seconds::from_micros(jv.number_or("overhead_us", 0.0));
        params.acceleration = jv.number_or("acceleration", 1.0);
        params.per_input_queues = jv.contains("per_input_queues")
            && jv.at("per_input_queues").as_bool();
        params.credits = uint_or<std::uint32_t>(jv, "credits", 0);

        core::VertexId id = 0;
        switch (kind) {
          case core::VertexKind::kIngress:
            id = graph.add_ingress(name);
            break;
          case core::VertexKind::kEgress:
            id = graph.add_egress(name);
            break;
          case core::VertexKind::kIp:
            id = graph.add_ip_vertex(name, uint_at<core::IpId>(jv, "ip"),
                                     params);
            break;
          case core::VertexKind::kRateLimiter:
            id = graph.add_rate_limiter(
                name,
                Bandwidth::from_gbps(
                    jv.at("rate_limit_gbps").as_number()),
                params.queue_capacity);
            break;
        }
        // Kept on every kind, so validation rejects a credit window on a
        // non-IP vertex instead of the parser silently dropping it.
        graph.vertex(id).params.credits = params.credits;
    }
    for (const Json& je : j.at("edges").as_array()) {
        core::EdgeParams params;
        params.delta = je.number_or("delta", 1.0);
        params.alpha = je.number_or("alpha", 0.0);
        params.beta = je.number_or("beta", 0.0);
        if (je.contains("dedicated_gbps")) {
            params.dedicated_bw = Bandwidth::from_gbps(
                je.at("dedicated_gbps").as_number());
        }
        graph.add_edge(uint_at<core::VertexId>(je, "from"),
                       uint_at<core::VertexId>(je, "to"), params);
    }
    return graph;
}

Json
to_json(const core::TrafficProfile& traffic)
{
    Json classes{JsonArray{}};
    for (const auto& c : traffic.classes()) {
        Json jc;
        jc.set("size_bytes", c.size.bytes());
        jc.set("weight", c.weight);
        classes.push_back(std::move(jc));
    }
    Json j;
    j.set("ingress_gbps", traffic.ingress_bandwidth().gbps());
    j.set("classes", std::move(classes));
    return j;
}

core::TrafficProfile
traffic_from_json(const Json& j)
{
    std::vector<core::PacketClass> classes;
    for (const Json& jc : j.at("classes").as_array()) {
        classes.push_back(core::PacketClass{
            Bytes{jc.at("size_bytes").as_number()},
            jc.at("weight").as_number()});
    }
    return core::TrafficProfile::mixed(
        std::move(classes),
        Bandwidth::from_gbps(j.at("ingress_gbps").as_number()));
}

Json
to_json(const Scenario& scenario)
{
    Json j;
    j.set("hardware", to_json(scenario.hw));
    j.set("graph", to_json(scenario.graph));
    j.set("traffic", to_json(scenario.traffic));
    return j;
}

Scenario
scenario_from_json(const Json& j)
{
    return Scenario{hardware_from_json(j.at("hardware")),
                    graph_from_json(j.at("graph")),
                    traffic_from_json(j.at("traffic"))};
}

std::string
save_scenario(const Scenario& scenario)
{
    return to_json(scenario).dump();
}

Scenario
load_scenario(const std::string& text)
{
    return scenario_from_json(Json::parse(text));
}

} // namespace lognic::io
