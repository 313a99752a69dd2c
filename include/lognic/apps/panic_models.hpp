/**
 * @file
 * Case study #5 (S4.6): hardware design-space exploration on the PANIC
 * prototype, covering the three scenarios:
 *
 *  #1 sizing an accelerator's request queue (credits) — Model 1
 *     "Pipelined Chain", credit-windowed simulation + analytic window model;
 *  #2 steering traffic at the central scheduler — Model 2 "Parallelized
 *     Chain" with three accelerators of 4:7:3 computing throughput;
 *  #3 configuring IP hardware parallelism — modified Model 3 with the
 *     three execution paths IP1->IP3, IP1->IP4, IP2->IP4.
 */
#ifndef LOGNIC_APPS_PANIC_MODELS_HPP_
#define LOGNIC_APPS_PANIC_MODELS_HPP_

#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"

namespace lognic::apps {

/// A PANIC chain model: its hardware and execution graph.
struct PanicScenario {
    core::HardwareModel hw;
    core::ExecutionGraph graph;
};

// --- Scenario #1: request-queue (credit) sizing ------------------------------

/**
 * Model 1 "Pipelined Chain" over @p units, in chain order: ingress -> rmt
 * -> units -> egress, on devices::panic_pipelined_chain_hw. PANIC maps
 * onto LogNIC parameters as follows: each crossbar port is a 100 Gbps
 * dedicated link on the edge into it (the last edge is the TX port), each
 * 20 ns fabric hop is the sending vertex's O_i, and each unit's share of
 * the central scheduler is its credit window (@p credits) with N_vi = 16
 * packet-buffer slots.
 *
 * @throws std::invalid_argument on no units or zero credits.
 */
PanicScenario make_panic_chain(std::vector<core::IpSpec> units,
                               std::uint32_t credits);

/**
 * The Figure-15 chain: @p stages identical one-engine units "unit1".."unitN",
 * calibrated so the credit knee lands at the paper's 5/4/4/4 for traffic
 * profiles 1-4 (see DESIGN.md S5).
 */
PanicScenario make_panic_pipelined_chain(std::uint32_t credits,
                                         std::uint32_t stages = 3);

/**
 * The analytic credit-window capacity of credited vertex @p v (the LogNIC
 * side of case study #5): a window of `credits` requests of size
 * @p request over a (service + credit round-trip) cycle caps v at
 *
 *     credits * request / (service + O_up + O_v + request / BW_link),
 *
 * with O_up the overhead of v's single upstream vertex and BW_link the
 * dedicated link into v. v's compute capacity still applies; the returned
 * value is the min of both.
 *
 * @throws std::invalid_argument unless v has credits and exactly one
 * in-edge, and that edge a dedicated link.
 */
Bandwidth panic_credit_capacity(const core::HardwareModel& hw,
                                const core::ExecutionGraph& graph,
                                core::VertexId v, Bytes request);

/**
 * Analytic chain capacity at @p credits for @p traffic: the credit-window
 * capacity of the bottleneck stage at the profile's packet-count mean size.
 */
Bandwidth lognic_panic_chain_capacity(const core::TrafficProfile& traffic,
                                      std::uint32_t credits,
                                      std::uint32_t stages = 3);

/**
 * The minimal credit provision that already achieves the chain's saturated
 * capacity (within @p tolerance) — the optimizer output behind the paper's
 * 5/4/4/4 suggestion.
 */
std::uint32_t lognic_optimal_credits(const core::TrafficProfile& traffic,
                                     std::uint32_t max_credits = 8,
                                     double tolerance = 1e-3);

/// Packet-count mean size of a profile (bytes moved per scheduled request).
Bytes mean_request_size(const core::TrafficProfile& traffic);

// --- Scenario #2: traffic steering -------------------------------------------

/**
 * Model 2 "Parallelized Chain": ingress fans out to A1/A2/A3; A1 receives
 * a fixed 20% of traffic, A2 receives @p a2_percent, A3 the remaining
 * (80 - a2_percent). @throws std::invalid_argument outside (0, 80).
 */
PanicScenario make_panic_parallel_chain(double a2_percent);

// --- Scenario #3: hardware parallelism ---------------------------------------

/**
 * Modified Model 3: ingress splits 70/30 to IP1/IP2; IP1's traffic splits
 * @p ip3_fraction to IP3 and the rest to IP4; IP2's traffic all goes to
 * IP4. @p ip4_parallelism sets IP4's engine count (1..8).
 */
PanicScenario make_panic_hybrid(double ip3_fraction,
                                std::uint32_t ip4_parallelism);

} // namespace lognic::apps

#endif // LOGNIC_APPS_PANIC_MODELS_HPP_
