#include "lognic/check/generate.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lognic/core/model.hpp"

namespace lognic::check {

namespace {

core::IpSpec
draw_ip(CheckRng& rng, const GeneratorConfig& cfg, const std::string& name)
{
    core::IpSpec spec;
    spec.name = name;
    spec.kind = rng.bernoulli(0.5) ? core::IpKind::kCpuCores
                                   : core::IpKind::kAccelerator;
    core::ServiceModel engine;
    engine.fixed_cost = Seconds::from_micros(
        rng.uniform(cfg.min_fixed_cost_us, cfg.max_fixed_cost_us));
    engine.byte_rate = Bandwidth::from_gigabytes_per_sec(rng.uniform(
        cfg.min_byte_rate_gigabytes, cfg.max_byte_rate_gigabytes));
    spec.roofline = core::ExtendedRoofline(engine, {});
    spec.max_engines = rng.uniform_u32(1, cfg.max_engines);
    spec.default_queue_capacity =
        rng.uniform_u32(cfg.min_queue_capacity, cfg.max_queue_capacity);
    // Service-time variability mix: mostly exponential (the paper's
    // Eq. 9-12 assumption), with gamma and deterministic engines so the
    // M/G/1 path and the simulator's non-exponential draws get exercise.
    const double r = rng.uniform01();
    spec.service_scv = r < 0.6 ? 1.0 : (r < 0.85 ? 0.25 : 0.0);
    return spec;
}

/// Generous shared fabric: the interesting bottleneck should be an IP (so
/// the drawn load fraction maps onto its utilization), not the fabric.
core::HardwareModel
draw_hardware(CheckRng& rng, std::uint64_t seed)
{
    core::HardwareModel hw(
        "check-" + std::to_string(seed),
        Bandwidth::from_gbps(rng.uniform(300.0, 800.0)),
        Bandwidth::from_gbps(rng.uniform(200.0, 600.0)),
        Bandwidth::from_gbps(rng.uniform(150.0, 400.0)));
    return hw;
}

GeneratedScenario
generate_single_queue(CheckRng& rng, std::uint64_t seed,
                      const GeneratorConfig& cfg)
{
    core::HardwareModel hw = draw_hardware(rng, seed);
    core::IpSpec spec = draw_ip(rng, cfg, "worker");
    // Single server: the M/M/1/N and M/G/1 closed forms describe one
    // engine. Deterministic service would be M/D/1/N, which the latency
    // model approximates rather than matches, so restrict to exponential
    // (M/M/1/N) and gamma (M/G/1, compared only where blocking vanishes).
    spec.max_engines = 1;
    const bool exponential = rng.bernoulli(0.65);
    spec.service_scv = exponential ? 1.0 : 0.25;
    // The P-K comparison assumes no blocking: give the M/G/1 case a deep
    // queue. The M/M/1/N comparison wants the finite-N effects visible.
    spec.default_queue_capacity = exponential
        ? rng.uniform_u32(cfg.min_queue_capacity, cfg.max_queue_capacity)
        : rng.uniform_u32(128, 256);
    const core::IpId ip = hw.add_ip(spec);

    core::ExecutionGraph g("single-queue");
    const auto in = g.add_ingress();
    core::VertexParams params;
    params.parallelism = 1;
    const auto v = g.add_ip_vertex("worker", ip, params);
    const auto eg = g.add_egress();
    g.add_edge(in, v);  // default edge: delta = 1, free transfer
    g.add_edge(v, eg);

    const double size_bytes = std::floor(
        rng.uniform(cfg.min_packet_bytes, cfg.max_packet_bytes));
    const double mean_service =
        spec.roofline.engine().service_time(Bytes{size_bytes}).seconds();
    const double u = exponential
        ? rng.uniform(cfg.rho_min, cfg.rho_max)
        : rng.uniform(cfg.rho_min, std::min(cfg.rho_max, 0.8));
    // One server at rate mu = 1/E[S]: lambda = u * mu pins rho = u.
    const double lambda = u / mean_service;

    core::TrafficProfile traffic = core::TrafficProfile::fixed(
        Bytes{size_bytes},
        Bandwidth::from_bytes_per_sec(lambda * size_bytes));

    return GeneratedScenario{
        io::Scenario{std::move(hw), std::move(g), std::move(traffic)},
        true, u};
}

GeneratedScenario
generate_dag(CheckRng& rng, std::uint64_t seed, const GeneratorConfig& cfg)
{
    core::HardwareModel hw = draw_hardware(rng, seed);
    const std::uint32_t nips = rng.uniform_u32(1, cfg.max_ips);
    for (std::uint32_t i = 0; i < nips; ++i)
        hw.add_ip(draw_ip(rng, cfg, "ip" + std::to_string(i)));

    core::ExecutionGraph g("check-dag");
    const auto in = g.add_ingress();
    const auto eg = g.add_egress();

    // Layered DAG with delta-weighted fan-out. `share[u]` tracks the
    // fraction of ingress data W flowing through vertex u; an edge u -> t
    // carries delta = share[u] * (normalized branch weight), keeping the
    // Eq. 1 flow balance exact by construction.
    const std::uint32_t layers = rng.uniform_u32(1, cfg.max_layers);
    std::vector<core::VertexId> prev{in};
    std::vector<double> prev_share{1.0};
    std::uint32_t vertex_no = 0;
    for (std::uint32_t l = 0; l < layers; ++l) {
        const std::uint32_t width = rng.uniform_u32(1, cfg.max_width);
        std::vector<core::VertexId> layer;
        for (std::uint32_t w = 0; w < width; ++w) {
            const core::IpId ip = rng.uniform_u32(0, nips - 1);
            core::VertexParams params;
            params.parallelism =
                rng.uniform_u32(1, hw.ip(ip).max_engines);
            params.queue_capacity = rng.uniform_u32(
                cfg.min_queue_capacity, cfg.max_queue_capacity);
            layer.push_back(g.add_ip_vertex(
                "v" + std::to_string(vertex_no++), ip, params));
        }
        std::vector<double> layer_share(layer.size(), 0.0);
        for (std::size_t u = 0; u < prev.size(); ++u) {
            // Branch weights for this source across the layer.
            std::vector<double> weights(layer.size());
            double total = 0.0;
            for (double& wgt : weights) {
                wgt = rng.uniform(0.2, 1.0);
                total += wgt;
            }
            for (std::size_t t = 0; t < layer.size(); ++t) {
                // A share summed over several sources can round to
                // 1 + eps; no edge carries more than the whole flow.
                const double delta =
                    std::min(prev_share[u] * weights[t] / total, 1.0);
                if (delta <= 1e-9)
                    continue;
                core::EdgeParams ep;
                ep.delta = delta;
                if (rng.bernoulli(cfg.shared_medium_fraction))
                    ep.alpha = delta;
                if (rng.bernoulli(cfg.shared_medium_fraction))
                    ep.beta = delta;
                g.add_edge(prev[u], layer[t], ep);
                layer_share[t] += delta;
            }
        }
        prev = std::move(layer);
        prev_share = std::move(layer_share);
    }
    for (std::size_t u = 0; u < prev.size(); ++u) {
        core::EdgeParams ep;
        ep.delta = std::min(prev_share[u], 1.0);
        g.add_edge(prev[u], eg, ep);
    }

    std::vector<core::PacketClass> classes(
        rng.uniform_u32(1, cfg.max_classes));
    for (auto& c : classes) {
        c.size = Bytes{std::floor(
            rng.uniform(cfg.min_packet_bytes, cfg.max_packet_bytes))};
        c.weight = rng.uniform(0.2, 1.0);
    }
    core::TrafficProfile traffic = core::TrafficProfile::mixed(
        std::move(classes), Bandwidth::from_gbps(1.0));

    // The model's capacity is load-independent, so one probe evaluation
    // gives the saturation point; scaling it by the drawn u pins the
    // binding vertex's utilization to the target regime.
    const double u = rng.uniform(cfg.rho_min, cfg.rho_max);
    const core::Model model(hw);
    const Bandwidth capacity = model.throughput(g, traffic).capacity;
    traffic.set_ingress_bandwidth(Bandwidth{capacity.bits_per_sec() * u});

    return GeneratedScenario{
        io::Scenario{std::move(hw), std::move(g), std::move(traffic)},
        false, u};
}

} // namespace

GeneratedScenario
generate_scenario(std::uint64_t seed, const GeneratorConfig& cfg)
{
    CheckRng rng(seed);
    GeneratedScenario out = rng.bernoulli(cfg.single_queue_fraction)
        ? generate_single_queue(rng, seed, cfg)
        : generate_dag(rng, seed, cfg);
    // A generated scenario that fails validation is a generator bug;
    // surface it at the source instead of deep inside a comparator.
    out.scenario.graph.validate(out.scenario.hw);
    return out;
}

} // namespace lognic::check
