/**
 * @file
 * LogNIC latency modeling (paper S3.6, Eq. 5-12).
 *
 * The latency of a path through the execution graph accumulates, per hop:
 * the source vertex's queueing delay Q_i (M/M/1/N, Eq. 9-12), its compute
 * time C_i / A_i (Eq. 7), the computation-transfer overhead O_i, and the
 * data movement time g_e / BW_e (interface + memory shares, Eq. 7). The
 * application latency is the traffic-weighted average over all paths
 * (Eq. 8).
 */
#ifndef LOGNIC_CORE_LATENCY_MODEL_HPP_
#define LOGNIC_CORE_LATENCY_MODEL_HPP_

#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"

namespace lognic::core {

/// Latency contribution of one hop (one edge plus its source vertex).
struct HopLatency {
    std::string vertex;       ///< source vertex name
    Seconds queueing{0.0};    ///< Q_i
    Seconds compute{0.0};     ///< C_i / A_i
    Seconds overhead{0.0};    ///< O_i
    Seconds transfer{0.0};    ///< g_e / BW_e
    Seconds total() const
    {
        return queueing + compute + overhead + transfer;
    }
};

/// Latency of one ingress->egress path.
struct PathLatency {
    std::vector<HopLatency> hops;
    double weight{1.0}; ///< w_Pk (Eq. 8)
    Seconds total{0.0}; ///< Eq. 6
};

struct LatencyEstimate {
    /// T_attainable: traffic-weighted mean latency (Eq. 8).
    Seconds mean{0.0};
    std::vector<PathLatency> paths;
    /// Worst per-vertex packet-drop probability Pro_N across the graph.
    double max_drop_probability{0.0};
    /**
     * Predicted *delivered* bandwidth under finite-queue drops:
     * BW_in * sum_p w_p * prod_{v in p} (1 - Pro_N(v)). Matches the
     * attainable throughput when no queue saturates; under overload it is
     * what a testbed actually measures at the egress port.
     */
    Bandwidth goodput{Bandwidth{0.0}};
    /**
     * Approximate 99th-percentile latency — an extension beyond the paper
     * (S4.7 lists tail estimation as a limitation). Each vertex's sojourn
     * (Q_i + C_i) is treated as an independent random variable with the
     * modelled mean and the IP's service variability; each path's total is
     * moment-matched to a shifted gamma distribution (the deterministic
     * overhead/transfer parts are the shift), and the reported value
     * solves the path-weighted mixture's 1% survival with
     * solver::shifted_gamma_mixture_quantile (a Markov-bracketed,
     * safeguarded Newton solve to 1e-13 relative; no upper cap). Exact for
     * a single M/M/1 stage; validated against the simulator elsewhere.
     */
    Seconds p99{0.0};
};

/**
 * Estimate latency for one packet class of @p traffic.
 *
 * Validates the graph; throws std::invalid_argument on malformed input.
 */
LatencyEstimate estimate_latency(const ExecutionGraph& graph,
                                 const HardwareModel& hw,
                                 const TrafficProfile& traffic,
                                 std::size_t class_index = 0);

} // namespace lognic::core

#endif // LOGNIC_CORE_LATENCY_MODEL_HPP_
