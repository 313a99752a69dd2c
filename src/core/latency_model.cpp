#include "lognic/core/latency_model.hpp"

#include <algorithm>

#include "lognic/core/solve_scratch.hpp"
#include "lognic/core/vertex_analysis.hpp"
#include "lognic/queueing/mg1.hpp"
#include "lognic/solver/special.hpp"
#include "lognic/queueing/mm1n.hpp"

namespace lognic::core {

namespace {

/**
 * Queueing delay Q_i of a vertex at its operating point (Eq. 12), with the
 * per-engine arrival rate scaled by @p thinning (the fraction of the
 * vertex's nominal traffic that actually survives upstream drops).
 */
Seconds
queueing_delay(const VertexAnalysis& va, double thinning, double scv,
               double& drop_probability)
{
    drop_probability = 0.0;
    if (va.passthrough || va.lambda <= 0.0 || va.mu <= 0.0
        || thinning <= 0.0)
        return Seconds{0.0};
    const double lambda = va.lambda * thinning;
    const queueing::Mm1nQueue q(lambda, va.mu, va.queue_capacity);
    drop_probability = q.blocking_probability();
    // Low-variability engines (hardware pipelines) wait per the M/G/1
    // Pollaczek-Khinchine formula while stable; the finite-queue M/M/1/N
    // form (Eq. 12) covers the exponential and overloaded cases.
    if (scv < 1.0 && lambda < va.mu) {
        const queueing::Mg1Queue pk(lambda, 1.0 / va.mu, scv);
        return Seconds{pk.mean_queueing_delay()};
    }
    // The closed form can be a hair negative at very low load due to
    // floating point; clamp at zero.
    return Seconds{std::max(0.0, q.paper_closed_form_delay())};
}

/// Data movement time over one edge (Eq. 7).
Seconds
transfer_time(const Edge& e, const HardwareModel& hw, Bytes g_in)
{
    const EdgeParams& p = e.params;
    double t = g_in.bits() * p.alpha / hw.interface_bandwidth().bits_per_sec()
        + g_in.bits() * p.beta / hw.memory_bandwidth().bits_per_sec();
    if (p.dedicated_bw) {
        t += g_in.bits() * p.delta / p.dedicated_bw->bits_per_sec();
    }
    return Seconds{t};
}

} // namespace

LatencyEstimate
estimate_latency(const ExecutionGraph& graph, const HardwareModel& hw,
                 const TrafficProfile& traffic, std::size_t class_index,
                 SolveScratch* scratch)
{
    // Re-validated even with a warm scratch; see estimate_throughput.
    graph.validate(hw);
    if (scratch != nullptr)
        scratch->ensure_topology(graph);

    const Bytes g_in = traffic.granularity(class_index);
    const Bandwidth bw_in = traffic.ingress_bandwidth();

    // Analyze every vertex once (queueing state is per vertex, not per
    // path), walking in topological order so each vertex sees only the
    // traffic that *survived* upstream finite queues — a feed-forward loss
    // network. Without the thinning, chained overloaded vertices would
    // each be charged the full offered load and drops would be double
    // counted.
    std::vector<VertexAnalysis> analysis(graph.vertex_count());
    std::vector<Seconds> queue_delay(graph.vertex_count(), Seconds{0.0});
    std::vector<double> drop_prob(graph.vertex_count(), 0.0);
    // inflow[v]: fraction of W arriving at v; survived[v]: fraction of W
    // leaving v after its own drops.
    std::vector<double> inflow(graph.vertex_count(), 0.0);
    std::vector<double> survived(graph.vertex_count(), 0.0);
    // Vertices bound to an IP with an empirical sojourn curve (S4.7) get
    // their whole (queueing + service) time from the curve; the curve's
    // value replaces the compute term and Q is folded in.
    std::vector<Seconds> sojourn_override(graph.vertex_count(),
                                          Seconds{-1.0});

    const std::vector<VertexId> ingresses = scratch != nullptr
        ? scratch->ingresses()
        : graph.ingress_vertices();
    {
        double total = 0.0;
        std::vector<double> shares(ingresses.size(), 0.0);
        for (std::size_t i = 0; i < ingresses.size(); ++i) {
            for (EdgeId e : graph.out_edges(ingresses[i]))
                shares[i] += graph.edge(e).params.delta;
            total += shares[i];
        }
        for (std::size_t i = 0; i < ingresses.size(); ++i) {
            inflow[ingresses[i]] = total > 0.0
                ? shares[i] / total
                : 1.0 / static_cast<double>(ingresses.size());
        }
    }

    LatencyEstimate est;
    const std::vector<VertexId> topo_order = scratch != nullptr
        ? scratch->topological_order()
        : graph.topological_order();
    for (VertexId v : topo_order) {
        analysis[v] = scratch != nullptr
            ? scratch->vertex_analysis(graph, hw, v, traffic, class_index)
            : analyze_vertex(graph, hw, v, traffic, class_index);
        const Vertex& vx = graph.vertex(v);
        const double nominal = vx.kind == VertexKind::kIngress
            ? inflow[v]
            : (scratch != nullptr ? scratch->in_delta_sum(v)
                                  : graph.in_delta_sum(v));

        if (vx.kind == VertexKind::kIp
            && hw.ip(vx.ip).sojourn_curve != nullptr) {
            // Opaque IP: the curve covers queueing + service; treat it as
            // lossless (its internal shedding is part of the curve).
            const double lambda =
                bw_in.bits_per_sec() * inflow[v] / g_in.bits();
            sojourn_override[v] = hw.ip(vx.ip).sojourn_curve(lambda);
            survived[v] = inflow[v];
        } else {
            const double thinning =
                nominal > 0.0 ? inflow[v] / nominal : 0.0;
            const double scv = vx.kind == VertexKind::kIp
                ? hw.ip(vx.ip).service_scv
                : 1.0;
            queue_delay[v] = queueing_delay(analysis[v], thinning, scv,
                                            drop_prob[v]);
            est.max_drop_probability =
                std::max(est.max_drop_probability, drop_prob[v]);
            survived[v] = inflow[v] * (1.0 - drop_prob[v]);
        }

        // Propagate the surviving flow downstream by branch shares.
        const std::vector<EdgeId> outs = scratch != nullptr
            ? scratch->out_edge_lists()[v]
            : graph.out_edges(v);
        double delta_sum = 0.0;
        for (EdgeId e : outs)
            delta_sum += graph.edge(e).params.delta;
        for (EdgeId e : outs) {
            const double share = delta_sum > 0.0
                ? graph.edge(e).params.delta / delta_sum
                : 1.0 / static_cast<double>(outs.size());
            inflow[graph.edge(e).to] += survived[v] * share;
        }
    }

    // With explicit egress vertices, every IP on a path is the source of
    // exactly one path edge, so the Eq. 6 edge sum already covers the final
    // IP's Q + C/A term.
    const std::vector<ExecutionGraph::Path> paths = scratch != nullptr
        ? scratch->paths()
        : graph.enumerate_paths();
    double weight_sum = 0.0;
    double mean = 0.0;
    // Per-path tails: the deterministic seconds (overheads + transfers)
    // shift a gamma moment-matched to the stochastic sojourn sum.
    std::vector<solver::ShiftedGamma> tails;
    tails.reserve(paths.size());
    for (const auto& path : paths) {
        PathLatency pl;
        pl.weight = path.weight;
        double det = 0.0;
        double var_mean = 0.0;
        double var_var = 0.0;
        for (EdgeId eid : path.edges) {
            const Edge& e = graph.edge(eid);
            const Vertex& src = graph.vertex(e.from);
            const VertexAnalysis& va = analysis[e.from];
            HopLatency hop;
            hop.vertex = src.name;
            if (sojourn_override[e.from].seconds() >= 0.0) {
                hop.queueing = Seconds{0.0};
                hop.compute = sojourn_override[e.from];
            } else {
                hop.queueing = queue_delay[e.from];
                hop.compute = va.passthrough
                    ? Seconds{0.0}
                    : va.compute_time / src.params.acceleration;
            }
            hop.overhead = src.params.overhead;
            hop.transfer = transfer_time(e, hw, g_in);
            // Tail accounting: Q + C is stochastic (variance per the IP's
            // service model), O and transfers are deterministic.
            const double sojourn =
                hop.queueing.seconds() + hop.compute.seconds();
            const double scv_v =
                src.kind == VertexKind::kIp ? hw.ip(src.ip).service_scv
                                            : 1.0;
            var_mean += sojourn;
            var_var += std::max(scv_v, 1e-6) * sojourn * sojourn;
            det += hop.overhead.seconds() + hop.transfer.seconds();
            pl.total += hop.total();
            pl.hops.push_back(std::move(hop));
        }
        if (var_var > 0.0 && var_mean > 0.0) {
            tails.push_back({path.weight, det, var_mean * var_mean / var_var,
                             var_var / var_mean});
        } else {
            tails.push_back({path.weight, det + var_mean, 0.0, 0.0});
        }
        mean += pl.weight * pl.total.seconds();
        weight_sum += pl.weight;
        est.paths.push_back(std::move(pl));
    }
    if (weight_sum > 0.0)
        mean /= weight_sum;
    est.mean = Seconds{mean};

    // p99: the path mixture's 1% survival.
    if (weight_sum > 0.0)
        est.p99 = Seconds{solver::shifted_gamma_mixture_quantile(tails, 0.99)};

    // Goodput: the flow that reaches the egress engines.
    double egress_flow = 0.0;
    const std::vector<VertexId> egresses = scratch != nullptr
        ? scratch->egresses()
        : graph.egress_vertices();
    for (VertexId v : egresses)
        egress_flow += inflow[v];
    est.goodput =
        std::min(bw_in, hw.line_rate()) * std::min(1.0, egress_flow);
    return est;
}

} // namespace lognic::core
