#include "lognic/core/throughput_model.hpp"

#include <algorithm>
#include <limits>

#include "lognic/core/vertex_analysis.hpp"

namespace lognic::core {

const char*
to_string(TermKind kind)
{
    switch (kind) {
      case TermKind::kIpCompute:
        return "ip-compute";
      case TermKind::kEdge:
        return "edge";
      case TermKind::kInterface:
        return "interface";
      case TermKind::kMemory:
        return "memory";
      case TermKind::kLineRate:
        return "line-rate";
      case TermKind::kRateLimit:
        return "rate-limit";
    }
    return "unknown";
}

ThroughputEstimate
estimate_throughput(const ExecutionGraph& graph, const HardwareModel& hw,
                    const TrafficProfile& traffic, std::size_t class_index)
{
    graph.validate(hw);

    ThroughputEstimate est;
    std::vector<ThroughputTerm>& terms = est.terms;

    // Ingress/egress engine rate caps the amount of data served per second.
    terms.push_back(
        {TermKind::kLineRate, "ingress/egress", hw.line_rate()});

    // Eq. 1 terms: P_vi / sum(delta_in) per IP (and rate-limiter) vertex.
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
        const Vertex& vx = graph.vertex(v);
        if (vx.kind == VertexKind::kIngress || vx.kind == VertexKind::kEgress)
            continue;
        const double delta_sum = graph.in_delta_sum(v);
        if (delta_sum <= 0.0)
            continue; // sees no traffic; never binds
        const VertexAnalysis va =
            analyze_vertex(graph, hw, v, traffic, class_index);
        const TermKind kind = vx.kind == VertexKind::kRateLimiter
            ? TermKind::kRateLimit
            : TermKind::kIpCompute;
        terms.push_back({kind, vx.name, va.attainable / delta_sum});
    }

    // Edge terms and shared-medium demand accumulation (Eq. 2).
    double alpha_sum = 0.0;
    double beta_sum = 0.0;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& ed = graph.edge(e);
        const EdgeParams& p = ed.params;
        alpha_sum += p.alpha;
        beta_sum += p.beta;
        if (p.dedicated_bw && p.delta > 0.0) {
            const std::string name = graph.vertex(ed.from).name + "->"
                + graph.vertex(ed.to).name;
            terms.push_back(
                {TermKind::kEdge, name, *p.dedicated_bw / p.delta});
        }
    }
    if (alpha_sum > 0.0) {
        terms.push_back({TermKind::kInterface, "interface",
                         hw.interface_bandwidth() / alpha_sum});
    }
    if (beta_sum > 0.0) {
        terms.push_back({TermKind::kMemory, "memory",
                         hw.memory_bandwidth() / beta_sum});
    }

    std::sort(terms.begin(), terms.end(),
              [](const ThroughputTerm& a, const ThroughputTerm& b) {
                  return a.limit < b.limit;
              });

    est.capacity = terms.front().limit;
    est.bottleneck = terms.front();
    est.achieved = std::min(est.capacity, traffic.ingress_bandwidth());
    return est;
}

} // namespace lognic::core
