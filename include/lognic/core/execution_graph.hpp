/**
 * @file
 * The software execution graph of a SmartNIC-offloaded program (paper S3.3).
 *
 * A program is a DAG whose vertices are (virtual) IP blocks or the
 * ingress/egress engines and whose edges are data movements over a
 * communication medium (the interface, the memory subsystem, or a dedicated
 * characterized link). Each vertex and edge carries the Table-2 software
 * parameters: delta (data transfer ratio), alpha/beta (interface/memory
 * medium usage), O (computation transfer overhead), D (parallelism), N
 * (queue capacity), gamma (node partition share), A (acceleration factor).
 */
#ifndef LOGNIC_CORE_EXECUTION_GRAPH_HPP_
#define LOGNIC_CORE_EXECUTION_GRAPH_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lognic/core/hardware_model.hpp"
#include "lognic/core/units.hpp"

namespace lognic::core {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Role of a vertex in the graph.
enum class VertexKind {
    kIngress,     ///< traffic enters here (wire or PCIe)
    kEgress,      ///< traffic leaves here
    kIp,          ///< a (virtual) IP block bound to a HardwareModel IP
    kRateLimiter, ///< shaping pseudo-IP inserted by extension #3 (S3.7)
};

const char* to_string(VertexKind kind);

/// Per-vertex software parameters (Table 2).
struct VertexParams {
    /// D_vi: engines this (virtual) IP uses. 0 means "all of the IP".
    std::uint32_t parallelism{0};
    /// N_vi: request queue capacity. 0 means "use the IP's default".
    std::uint32_t queue_capacity{0};
    /// gamma_vi: multiplexing share of the physical IP, in (0, 1].
    double partition{1.0};
    /// O_i: computation transfer overhead to trigger the *next* IP.
    Seconds overhead{0.0};
    /// A_i: acceleration factor applied to the compute time (C_i / A_i).
    double acceleration{1.0};
    /**
     * The paper's Figure-2b IP has m input queues with a round-robin
     * scheduler. When true, the vertex gives each in-edge its own queue
     * (capacity N_vi / indegree each) and engines pull round-robin —
     * providing per-input isolation: one overloaded input cannot occupy
     * the whole buffer. When false (default), inputs share one FIFO.
     */
    bool per_input_queues{false};
    /**
     * Credit window (IP vertices only; 0 = none). A packet takes one of
     * the vertex's credits when it leaves its upstream vertex for this
     * one; a packet that finds none waits upstream in a FIFO bounded by
     * N_vi (overflow drops). The credit comes back O_i after the vertex
     * finishes (or loses) the packet, so the window caps throughput at
     * credits x request / (service + O_up + O_i + transfer). Honored by
     * the simulator; the analytical model does not read it.
     */
    std::uint32_t credits{0};
};

struct Vertex {
    std::string name;
    VertexKind kind{VertexKind::kIp};
    /// Bound hardware IP; meaningful only for kind == kIp.
    IpId ip{0};
    VertexParams params;
    /// For kRateLimiter: the shaping rate.
    Bandwidth rate_limit{Bandwidth::from_gbps(0.0)};
};

/// Per-edge software parameters (Table 2).
struct EdgeParams {
    /// delta_eij: fraction of the ingress data W transferred on this edge.
    double delta{1.0};
    /// alpha_eij: fraction of W crossing the shared interface on this edge.
    double alpha{0.0};
    /// beta_eij: fraction of W crossing the memory subsystem on this edge.
    double beta{0.0};
    /// Dedicated characterized bandwidth (BW_mn); overrides alpha/beta caps.
    std::optional<Bandwidth> dedicated_bw{};
};

struct Edge {
    VertexId from{0};
    VertexId to{0};
    EdgeParams params;
};

/**
 * A directed acyclic execution graph. Mutations are cheap; call validate()
 * (or any model entry point, which validates internally) before analysis.
 */
class ExecutionGraph {
  public:
    ExecutionGraph() = default;
    explicit ExecutionGraph(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    // --- construction --------------------------------------------------------

    VertexId add_ingress(const std::string& name = "ingress");
    VertexId add_egress(const std::string& name = "egress");
    VertexId add_ip_vertex(const std::string& name, IpId ip,
                           VertexParams params = {});
    VertexId add_rate_limiter(const std::string& name, Bandwidth limit,
                              std::uint32_t queue_capacity);
    EdgeId add_edge(VertexId from, VertexId to, EdgeParams params = {});

    // --- access --------------------------------------------------------------

    std::size_t vertex_count() const { return vertices_.size(); }
    std::size_t edge_count() const { return edges_.size(); }
    const Vertex& vertex(VertexId v) const;
    Vertex& vertex(VertexId v);
    const Edge& edge(EdgeId e) const;
    Edge& edge(EdgeId e);

    std::vector<EdgeId> out_edges(VertexId v) const;
    std::vector<EdgeId> in_edges(VertexId v) const;
    std::size_t in_degree(VertexId v) const { return in_edges(v).size(); }

    std::optional<VertexId> find_vertex(const std::string& name) const;
    std::vector<VertexId> ingress_vertices() const;
    std::vector<VertexId> egress_vertices() const;

    /// Sum of delta over incoming edges (the Sigma delta_eji of Eq. 1).
    double in_delta_sum(VertexId v) const;

    // --- validation & traversal ----------------------------------------------

    /**
     * Check structural invariants: at least one ingress and one egress, the
     * graph is acyclic, every vertex lies on some ingress->egress path,
     * parameters are in range (delta in [0,1], partition in (0,1], ...).
     *
     * @throws std::invalid_argument describing the first violation.
     */
    void validate(const HardwareModel& hw) const;

    /// Vertices in a topological order. @throws std::invalid_argument on cycles.
    std::vector<VertexId> topological_order() const;

    /// One ingress->egress path as an edge sequence.
    struct Path {
        std::vector<EdgeId> edges;
        double weight{1.0}; ///< w_Pk: product of branch fractions (Eq. 8)
    };

    /**
     * Enumerate every ingress->egress path with its traffic weight. Branch
     * weights at a fan-out vertex are delta_e / sum(sibling deltas).
     *
     * @throws std::invalid_argument if path count exceeds @p max_paths.
     */
    std::vector<Path> enumerate_paths(std::size_t max_paths = 4096) const;

  private:
    VertexId add_vertex(Vertex v);

    std::string name_;
    std::vector<Vertex> vertices_;
    std::vector<Edge> edges_;
};

} // namespace lognic::core

#endif // LOGNIC_CORE_EXECUTION_GRAPH_HPP_
