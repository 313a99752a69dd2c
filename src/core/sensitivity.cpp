#include "lognic/core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace lognic::core {

namespace {

/// Relative perturbation applied each way (central differences).
constexpr double kPerturbation = 0.05;

struct Outputs {
    double capacity;
    double latency;
};

Outputs
evaluate(const Model& model, const ExecutionGraph& g,
         const TrafficProfile& t)
{
    const Report rep = model.estimate(g, t);
    return Outputs{rep.throughput.capacity.bits_per_sec(),
                   rep.latency.mean.seconds()};
}

/// Log-log elasticity between the outputs at parameter factors f_lo/f_hi.
double
elasticity(double y_lo, double y_hi, double f_lo, double f_hi)
{
    if (y_lo <= 0.0 || y_hi <= 0.0 || f_lo <= 0.0 || f_hi <= f_lo)
        return 0.0;
    return std::log(y_hi / y_lo) / std::log(f_hi / f_lo);
}

} // namespace

std::vector<Sensitivity>
analyze_sensitivity(const ExecutionGraph& graph, const HardwareModel& hw,
                    const TrafficProfile& traffic)
{
    graph.validate(hw);
    const double h = kPerturbation;
    std::vector<Sensitivity> out;

    // A parameter is probed by evaluating two perturbed copies of the
    // scenario produced by the mutator.
    const auto probe =
        [&](const std::string& name,
            const std::function<void(ExecutionGraph&, HardwareModel&,
                                     TrafficProfile&, double)>& mutate,
            double down = -1.0, double up = -1.0) {
            const double f_lo = down >= 0.0 ? down : 1.0 - h;
            const double f_hi = up >= 0.0 ? up : 1.0 + h;
            ExecutionGraph g_lo = graph;
            HardwareModel hw_lo = hw;
            TrafficProfile t_lo = traffic;
            mutate(g_lo, hw_lo, t_lo, f_lo);
            ExecutionGraph g_hi = graph;
            HardwareModel hw_hi = hw;
            TrafficProfile t_hi = traffic;
            mutate(g_hi, hw_hi, t_hi, f_hi);
            const Outputs lo = evaluate(Model(hw_lo), g_lo, t_lo);
            const Outputs hi = evaluate(Model(hw_hi), g_hi, t_hi);
            Sensitivity s;
            s.parameter = name;
            s.capacity_elasticity =
                elasticity(lo.capacity, hi.capacity, f_lo, f_hi);
            s.latency_elasticity =
                elasticity(lo.latency, hi.latency, f_lo, f_hi);
            out.push_back(std::move(s));
        };

    // Shared hardware bandwidths. HardwareModel is immutable for these,
    // so perturbed models are rebuilt.
    const auto rebuild_hw = [&](double intf_f, double mem_f,
                                double line_f) {
        HardwareModel copy(hw.name(), hw.interface_bandwidth() * intf_f,
                           hw.memory_bandwidth() * mem_f,
                           hw.line_rate() * line_f);
        for (IpId i = 0; i < hw.ip_count(); ++i)
            copy.add_ip(hw.ip(i));
        return copy;
    };
    probe("hw:interface-bandwidth",
          [&](ExecutionGraph&, HardwareModel& h2, TrafficProfile&,
              double f) { h2 = rebuild_hw(f, 1.0, 1.0); });
    probe("hw:memory-bandwidth",
          [&](ExecutionGraph&, HardwareModel& h2, TrafficProfile&,
              double f) { h2 = rebuild_hw(1.0, f, 1.0); });
    probe("hw:line-rate",
          [&](ExecutionGraph&, HardwareModel& h2, TrafficProfile&,
              double f) { h2 = rebuild_hw(1.0, 1.0, f); });
    probe("traffic:offered-load",
          [&](ExecutionGraph&, HardwareModel&, TrafficProfile& t2,
              double f) {
              t2.set_ingress_bandwidth(traffic.ingress_bandwidth() * f);
          });

    // Per-vertex knobs.
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
        const Vertex& vx = graph.vertex(v);
        if (vx.kind != VertexKind::kIp)
            continue;
        const std::string base = "vertex:" + vx.name;

        // Partition (gamma) scales multiplicatively but must stay <= 1.
        if (vx.params.partition * (1.0 + h) <= 1.0) {
            probe(base + ":partition",
                  [&, v](ExecutionGraph& g2, HardwareModel&,
                         TrafficProfile&, double f) {
                      g2.vertex(v).params.partition *= f;
                  });
        }

        const IpSpec& spec = hw.ip(vx.ip);
        const std::uint32_t d = vx.params.parallelism > 0
            ? vx.params.parallelism
            : spec.max_engines;
        if (d > 1) {
            // +/- one engine as a log step; one-sided (downward) when the
            // vertex already owns every engine.
            const std::uint32_t hi_engines =
                std::min<std::uint32_t>(d + 1, spec.max_engines);
            const double f_lo = static_cast<double>(d - 1) / d;
            const double f_hi = static_cast<double>(hi_engines) / d;
            const auto set_engines =
                [&, v, d](ExecutionGraph& g2, HardwareModel&,
                          TrafficProfile&, double f) {
                    g2.vertex(v).params.parallelism =
                        static_cast<std::uint32_t>(std::lround(d * f));
                };
            probe(base + ":parallelism", set_engines, f_lo, f_hi);
        }
    }

    // Per-edge delta (only meaningful on fan-outs; a chain's delta = 1
    // rescales everything equally, so skip full-traffic edges).
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& ed = graph.edge(e);
        if (ed.params.delta <= 0.0 || ed.params.delta >= 1.0)
            continue;
        probe("edge:" + graph.vertex(ed.from).name + "->"
                  + graph.vertex(ed.to).name + ":delta",
              [&, e](ExecutionGraph& g2, HardwareModel&, TrafficProfile&,
                     double f) { g2.edge(e).params.delta *= f; });
    }

    std::sort(out.begin(), out.end(),
              [](const Sensitivity& a, const Sensitivity& b) {
                  const double ca = std::abs(a.capacity_elasticity);
                  const double cb = std::abs(b.capacity_elasticity);
                  if (ca != cb)
                      return ca > cb;
                  return std::abs(a.latency_elasticity)
                      > std::abs(b.latency_elasticity);
              });
    return out;
}

} // namespace lognic::core
