#include "lognic/core/execution_graph.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

namespace lognic::core {

const char*
to_string(VertexKind kind)
{
    switch (kind) {
      case VertexKind::kIngress:
        return "ingress";
      case VertexKind::kEgress:
        return "egress";
      case VertexKind::kIp:
        return "ip";
      case VertexKind::kRateLimiter:
        return "rate-limiter";
    }
    return "unknown";
}

VertexId
ExecutionGraph::add_vertex(Vertex v)
{
    if (v.name.empty())
        throw std::invalid_argument("ExecutionGraph: vertex needs a name");
    if (find_vertex(v.name))
        throw std::invalid_argument(
            "ExecutionGraph: duplicate vertex name '" + v.name + "'");
    vertices_.push_back(std::move(v));
    return static_cast<VertexId>(vertices_.size() - 1);
}

VertexId
ExecutionGraph::add_ingress(const std::string& name)
{
    Vertex v;
    v.name = name;
    v.kind = VertexKind::kIngress;
    return add_vertex(std::move(v));
}

VertexId
ExecutionGraph::add_egress(const std::string& name)
{
    Vertex v;
    v.name = name;
    v.kind = VertexKind::kEgress;
    return add_vertex(std::move(v));
}

VertexId
ExecutionGraph::add_ip_vertex(const std::string& name, IpId ip,
                              VertexParams params)
{
    Vertex v;
    v.name = name;
    v.kind = VertexKind::kIp;
    v.ip = ip;
    v.params = params;
    return add_vertex(std::move(v));
}

VertexId
ExecutionGraph::add_rate_limiter(const std::string& name, Bandwidth limit,
                                 std::uint32_t queue_capacity)
{
    if (limit.bits_per_sec() <= 0.0)
        throw std::invalid_argument(
            "ExecutionGraph: rate limit must be positive");
    Vertex v;
    v.name = name;
    v.kind = VertexKind::kRateLimiter;
    v.rate_limit = limit;
    v.params.queue_capacity = queue_capacity;
    return add_vertex(std::move(v));
}

EdgeId
ExecutionGraph::add_edge(VertexId from, VertexId to, EdgeParams params)
{
    if (from >= vertices_.size() || to >= vertices_.size()) {
        const VertexId bad = from >= vertices_.size() ? from : to;
        throw std::out_of_range(
            "ExecutionGraph '" + name_ + "': edge endpoint id "
            + std::to_string(bad) + " does not exist (graph has "
            + std::to_string(vertices_.size()) + " vertices)");
    }
    if (from == to)
        throw std::invalid_argument(
            "ExecutionGraph '" + name_ + "': self-loop on vertex '"
            + vertices_[from].name + "' not allowed");
    edges_.push_back(Edge{from, to, params});
    return static_cast<EdgeId>(edges_.size() - 1);
}

const Vertex&
ExecutionGraph::vertex(VertexId v) const
{
    if (v >= vertices_.size())
        throw std::out_of_range(
            "ExecutionGraph '" + name_ + "': no vertex with id "
            + std::to_string(v) + " (graph has "
            + std::to_string(vertices_.size()) + ")");
    return vertices_[v];
}

Vertex&
ExecutionGraph::vertex(VertexId v)
{
    if (v >= vertices_.size())
        throw std::out_of_range(
            "ExecutionGraph '" + name_ + "': no vertex with id "
            + std::to_string(v) + " (graph has "
            + std::to_string(vertices_.size()) + ")");
    return vertices_[v];
}

const Edge&
ExecutionGraph::edge(EdgeId e) const
{
    if (e >= edges_.size())
        throw std::out_of_range(
            "ExecutionGraph '" + name_ + "': no edge with id "
            + std::to_string(e) + " (graph has "
            + std::to_string(edges_.size()) + ")");
    return edges_[e];
}

Edge&
ExecutionGraph::edge(EdgeId e)
{
    if (e >= edges_.size())
        throw std::out_of_range(
            "ExecutionGraph '" + name_ + "': no edge with id "
            + std::to_string(e) + " (graph has "
            + std::to_string(edges_.size()) + ")");
    return edges_[e];
}

std::vector<EdgeId>
ExecutionGraph::out_edges(VertexId v) const
{
    std::vector<EdgeId> out;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        if (edges_[e].from == v)
            out.push_back(static_cast<EdgeId>(e));
    }
    return out;
}

std::vector<EdgeId>
ExecutionGraph::in_edges(VertexId v) const
{
    std::vector<EdgeId> in;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        if (edges_[e].to == v)
            in.push_back(static_cast<EdgeId>(e));
    }
    return in;
}

std::optional<VertexId>
ExecutionGraph::find_vertex(const std::string& name) const
{
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        if (vertices_[i].name == name)
            return static_cast<VertexId>(i);
    }
    return std::nullopt;
}

std::vector<VertexId>
ExecutionGraph::ingress_vertices() const
{
    std::vector<VertexId> out;
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        if (vertices_[i].kind == VertexKind::kIngress)
            out.push_back(static_cast<VertexId>(i));
    }
    return out;
}

std::vector<VertexId>
ExecutionGraph::egress_vertices() const
{
    std::vector<VertexId> out;
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        if (vertices_[i].kind == VertexKind::kEgress)
            out.push_back(static_cast<VertexId>(i));
    }
    return out;
}

double
ExecutionGraph::in_delta_sum(VertexId v) const
{
    double sum = 0.0;
    for (EdgeId e : in_edges(v))
        sum += edges_[e].params.delta;
    return sum;
}

std::vector<VertexId>
ExecutionGraph::topological_order() const
{
    std::vector<std::size_t> in_count(vertices_.size(), 0);
    for (const auto& e : edges_)
        ++in_count[e.to];

    std::queue<VertexId> ready;
    for (std::size_t v = 0; v < vertices_.size(); ++v) {
        if (in_count[v] == 0)
            ready.push(static_cast<VertexId>(v));
    }

    std::vector<VertexId> order;
    order.reserve(vertices_.size());
    while (!ready.empty()) {
        const VertexId v = ready.front();
        ready.pop();
        order.push_back(v);
        for (EdgeId e : out_edges(v)) {
            if (--in_count[edges_[e].to] == 0)
                ready.push(edges_[e].to);
        }
    }
    if (order.size() != vertices_.size())
        throw std::invalid_argument(
            "ExecutionGraph '" + name_ + "': graph contains a cycle");
    return order;
}

void
ExecutionGraph::validate(const HardwareModel& hw) const
{
    if (ingress_vertices().empty())
        throw std::invalid_argument(
            "ExecutionGraph '" + name_ + "': no ingress vertex");
    if (egress_vertices().empty())
        throw std::invalid_argument(
            "ExecutionGraph '" + name_ + "': no egress vertex");

    (void)topological_order(); // throws on cycles

    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        const auto& v = vertices_[i];
        const std::string where =
            "ExecutionGraph '" + name_ + "' vertex '" + v.name + "': ";
        if (v.kind == VertexKind::kIp) {
            if (v.ip >= hw.ip_count())
                throw std::invalid_argument(
                    where + "references IP id " + std::to_string(v.ip)
                    + ", but hardware model '" + hw.name() + "' has only "
                    + std::to_string(hw.ip_count()) + " IPs");
            const auto& spec = hw.ip(v.ip);
            if (v.params.parallelism > spec.max_engines)
                throw std::invalid_argument(
                    where + "parallelism "
                    + std::to_string(v.params.parallelism)
                    + " exceeds IP '" + spec.name + "' max_engines "
                    + std::to_string(spec.max_engines));
            if (!(v.params.partition > 0.0) || v.params.partition > 1.0)
                throw std::invalid_argument(
                    where + "partition must be in (0, 1]");
            if (!(v.params.acceleration > 0.0))
                throw std::invalid_argument(
                    where + "acceleration must be positive");
            if (v.params.overhead.seconds() < 0.0)
                throw std::invalid_argument(where + "negative overhead");
        } else if (v.params.credits > 0) {
            throw std::invalid_argument(
                where + "credits need an IP vertex, not "
                + to_string(v.kind));
        }
        const bool needs_input = v.kind != VertexKind::kIngress;
        const bool needs_output = v.kind != VertexKind::kEgress;
        if (needs_input && in_edges(static_cast<VertexId>(i)).empty())
            throw std::invalid_argument(where + "unreachable (no in-edges)");
        if (needs_output && out_edges(static_cast<VertexId>(i)).empty())
            throw std::invalid_argument(where + "dead end (no out-edges)");
        if (v.kind == VertexKind::kIngress
            && !in_edges(static_cast<VertexId>(i)).empty())
            throw std::invalid_argument(where + "ingress cannot have inputs");
        if (v.kind == VertexKind::kEgress
            && !out_edges(static_cast<VertexId>(i)).empty())
            throw std::invalid_argument(where + "egress cannot have outputs");
    }

    for (const auto& e : edges_) {
        const std::string where = "ExecutionGraph '" + name_ + "' edge "
            + vertices_[e.from].name + "->" + vertices_[e.to].name + ": ";
        const auto& p = e.params;
        if (p.delta < 0.0 || p.delta > 1.0 || !std::isfinite(p.delta))
            throw std::invalid_argument(where + "delta must be in [0, 1]");
        if (p.alpha < 0.0 || !std::isfinite(p.alpha))
            throw std::invalid_argument(where + "alpha must be >= 0");
        if (p.beta < 0.0 || !std::isfinite(p.beta))
            throw std::invalid_argument(where + "beta must be >= 0");
        if (p.dedicated_bw && p.dedicated_bw->bits_per_sec() <= 0.0)
            throw std::invalid_argument(
                where + "dedicated bandwidth must be positive");
    }
}

std::vector<ExecutionGraph::Path>
ExecutionGraph::enumerate_paths(std::size_t max_paths) const
{
    std::vector<Path> paths;
    std::vector<EdgeId> stack;

    std::function<void(VertexId, double)> dfs = [&](VertexId v, double weight) {
        if (vertices_[v].kind == VertexKind::kEgress) {
            if (paths.size() >= max_paths)
                throw std::invalid_argument(
                    "ExecutionGraph: path explosion (raise max_paths?)");
            paths.push_back(Path{stack, weight});
            return;
        }
        const auto outs = out_edges(v);
        double delta_sum = 0.0;
        for (EdgeId e : outs)
            delta_sum += edges_[e].params.delta;
        for (EdgeId e : outs) {
            const double branch = delta_sum > 0.0
                ? edges_[e].params.delta / delta_sum
                : 1.0 / static_cast<double>(outs.size());
            stack.push_back(e);
            dfs(edges_[e].to, weight * branch);
            stack.pop_back();
        }
    };

    // Multiple ingress engines split the traffic by their outgoing delta
    // sums (equal split when no deltas are set).
    const auto ingresses = ingress_vertices();
    double total = 0.0;
    std::vector<double> shares(ingresses.size(), 0.0);
    for (std::size_t i = 0; i < ingresses.size(); ++i) {
        for (EdgeId e : out_edges(ingresses[i]))
            shares[i] += edges_[e].params.delta;
        total += shares[i];
    }
    for (std::size_t i = 0; i < ingresses.size(); ++i) {
        const double w = total > 0.0
            ? shares[i] / total
            : 1.0 / static_cast<double>(ingresses.size());
        dfs(ingresses[i], w);
    }
    return paths;
}

} // namespace lognic::core
