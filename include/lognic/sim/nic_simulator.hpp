/**
 * @file
 * Packet-level discrete-event simulator of the LogNIC hardware model.
 *
 * This is the repository's stand-in for the paper's physical SmartNIC
 * testbeds: it takes the *same* hardware model, execution graph, and traffic
 * profile the analytical model takes, but instead of closed forms it
 * simulates individual packets through queues, parallel engines, and
 * contended interconnect/memory links. Every "Measured" series in the
 * reproduced figures comes from this simulator; every "LogNIC" series from
 * the analytical model — so model validation compares two independent
 * implementations of the same semantics.
 *
 * Semantics mirrored from the model:
 *  - ingress offers BW_in of traffic with the profile's packet mix
 *    (Poisson arrivals by default, matching the M/M/1/N assumptions);
 *  - each IP vertex has a finite queue (N_vi, drop on overflow), D_vi
 *    engines, and a per-request service time drawn from the IP's roofline
 *    engine model at the vertex's request granularity;
 *  - edges move data over the shared interface and/or memory links (FIFO
 *    bandwidth servers, so contention emerges) and optional dedicated links;
 *  - the computation-transfer overhead O_i is charged as latency between
 *    service completion and the outbound transfer;
 *  - a vertex with `credits` > 0 admits packets through a credit window
 *    (the PANIC scheduler of case study #5): a packet takes a credit as it
 *    leaves its upstream vertex, waits upstream in a FIFO bounded by N_vi
 *    while none is free (overflow drops), and the credit returns O_i after
 *    the vertex finishes or loses the packet.
 */
#ifndef LOGNIC_SIM_NIC_SIMULATOR_HPP_
#define LOGNIC_SIM_NIC_SIMULATOR_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/io/json.hpp"
#include "lognic/obs/attribution.hpp"
#include "lognic/obs/metrics.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/sim/event_queue.hpp"
#include "lognic/sim/random.hpp"
#include "lognic/sim/stats.hpp"
#include "lognic/traffic/trace.hpp"

namespace lognic::sim {

/**
 * ON/OFF burst modulation of the arrival process: the instantaneous rate
 * alternates between `intensity` x nominal (ON) and a compensating low
 * rate (OFF) so the long-run mean stays at the profile's BW_in. Models the
 * "burst degree" dimension of traffic profiles (S2.4).
 */
struct BurstModel {
    bool enabled{false};
    Seconds on{Seconds::from_micros(50.0)};
    Seconds off{Seconds::from_micros(50.0)};
    /// Rate multiplier during ON periods; must satisfy
    /// intensity * on/(on+off) <= 1 so the OFF rate stays non-negative.
    double intensity{1.8};
};

/**
 * Watchdog limits for a single run. The event budget is deterministic —
 * the same configuration truncates at the same simulated instant on every
 * machine — while the wall-clock deadline is a last-resort guard whose
 * trigger point varies with host load. 0 disables either limit.
 */
struct WatchdogOptions {
    std::uint64_t max_events{0};     ///< simulated-event budget (0 = off)
    double wall_clock_seconds{0.0};  ///< host-time deadline (0 = off)
};

struct SimOptions {
    /// Simulated duration in seconds.
    SimTime duration{0.05};
    /// Fraction of the duration treated as warmup (stats discarded).
    double warmup_fraction{0.2};
    std::uint64_t seed{42};
    /// Exponential service times (matches the model's M/M/1/N assumption);
    /// false gives deterministic service.
    bool exponential_service{true};
    /// Poisson arrivals; false gives a paced (deterministic) generator.
    bool poisson_arrivals{true};
    /// Optional burst modulation (requires poisson_arrivals).
    BurstModel burst;
    /**
     * Fault schedule replayed mid-run (engines offline, degraded links,
     * drop bursts, ...). An empty plan is the default and is guaranteed
     * bit-identical to a build without fault support: no extra RNG draws,
     * no behavioral branches taken.
     */
    fault::FaultPlan faults;
    /// Runaway-run protection; truncated runs return partial results.
    WatchdogOptions watchdog;
    /**
     * Observability: attach a TraceSink to record packet lifecycle spans
     * and per-vertex counter tracks. Default-off; with no sink the
     * simulator's hot path pays a null-pointer test and nothing else, and
     * results are bit-identical to an untraced run (tracing never draws
     * from the RNG).
     */
    obs::TraceOptions trace{};
};

/**
 * Check option invariants: duration > 0, warmup_fraction in [0, 1), a
 * well-formed burst model (positive phases, intensity >= 1 and
 * intensity * on/(on+off) <= 1, Poisson arrivals), a valid fault plan,
 * non-negative watchdog limits.
 *
 * Called by the simulator constructors; also usable standalone to vet
 * options parsed from user input. @throws std::invalid_argument.
 */
void validate(const SimOptions& options);

/// Per-vertex measurement (IP and rate-limiter vertices only).
struct VertexStats {
    std::string name;
    /// Fraction of (engine x time) spent serving, in [0, 1].
    double utilization{0.0};
    /// Time-averaged requests in the system (queue + in service).
    double mean_occupancy{0.0};
    std::uint64_t served{0};
    std::uint64_t dropped{0};
};

struct SimResult {
    Bandwidth delivered{Bandwidth{0.0}};   ///< app bytes/s out of egress
    OpsRate delivered_ops{OpsRate{0.0}};
    /// Latency fields hold the empty-set sentinel 0.0 when `completed` is
    /// zero (nothing finished after warmup); check before aggregating.
    Seconds mean_latency{0.0};
    Seconds p50_latency{0.0};
    Seconds p99_latency{0.0};
    /// Packets generated over the whole run, warmup included (the offered
    /// load; kept lifetime-wide so callers can sanity-check the generator).
    std::uint64_t generated{0};
    std::uint64_t completed{0};
    /**
     * Drops inside the measurement window (warmup_end, horizon] — the same
     * convention completions use. `drop_rate` divides these by the
     * arrivals in the same window, so it is an unbiased estimate of the
     * steady-state drop probability even at short horizons; it is NOT
     * dropped / generated (those span different windows).
     */
    std::uint64_t dropped{0};
    double drop_rate{0.0};
    /**
     * Lifetime (whole-run) accounting, the terms of the packet-
     * conservation invariant the simulator asserts at end of run:
     *   generated == completed_total + dropped_total + in_flight.
     * `in_flight` counts packets still inside the device when the run
     * ended (mid-transfer, queued, or in service) — nonzero even for
     * healthy runs, and large for truncated ones.
     */
    std::uint64_t completed_total{0};
    std::uint64_t dropped_total{0};
    std::uint64_t in_flight{0};
    /**
     * Watchdog outcome. A truncated run carries valid partial statistics
     * normalized to `sim_time_reached` (not the requested duration);
     * truncation_reason is "event_budget" or "wall_clock".
     */
    bool truncated{false};
    std::string truncation_reason;
    double sim_time_reached{0.0};
    std::uint64_t events_executed{0};
    /// Per-vertex breakdown; the most utilized vertex is the measured
    /// bottleneck (the sim-side counterpart of the model's min() term).
    std::vector<VertexStats> vertex_stats;
    /**
     * Structured snapshot of every measurement above (and a latency
     * histogram the scalar fields cannot carry): "sim.*" counters/gauges
     * plus "vertex.<name>.*" series. The scalar fields remain as the
     * quick-access view; the snapshot is what the runner aggregates
     * across replications and what tooling serializes.
     */
    obs::MetricsSnapshot metrics;

    /// The vertex with the highest utilization; empty stats if none.
    const VertexStats& busiest() const;
};

/// The per-vertex measurements as attribution observations.
std::vector<obs::VertexObservation> observations(const SimResult& result);

class NicSimulator {
  public:
    /**
     * Build a simulator instance. The graph is validated against @p hw.
     * The referenced hardware model and graph must outlive the simulator.
     */
    NicSimulator(const core::HardwareModel& hw,
                 const core::ExecutionGraph& graph,
                 const core::TrafficProfile& traffic, SimOptions options = {});
    ~NicSimulator();

    NicSimulator(const NicSimulator&) = delete;
    NicSimulator& operator=(const NicSimulator&) = delete;

    /// Run the full simulation and collect results. Call once.
    SimResult run();

    // --- segmented (checkpointable) execution ----------------------------
    //
    // begin() / advance() / save_state() / load_state() / finalize() run
    // the same simulation as run(), cut into event-budget segments with a
    // serializable snapshot at every segment boundary. The segmentation is
    // invisible to the results: the event budget is per-advance() call and
    // dispatch order depends only on (when, seq), so
    //
    //     begin(); while (!advance(k)) {} finalize();
    //
    // is bit-identical to run() for every k — and so is any prefix run in
    // one process, snapshotted, and resumed via load_state() in another.
    //
    // Restrictions (all throw): tracing must be off (trace spans are
    // streamed out, not snapshotable), trace replay is unsupported, and
    // the watchdog must be unset (segment budgets subsume it).

    /// Start segmented execution. Call once, before any advance().
    void begin();

    /**
     * Execute up to @p max_events events (> 0). Returns true when the run
     * is finished (calendar drained or horizon reached) — after which
     * finalize() collects the result.
     */
    bool advance(std::uint64_t max_events);

    /**
     * Serialize the complete mid-run state (clock, calendar, RNG, packet
     * and vertex state, recorders) at the current event boundary. Doubles
     * travel as hex bit patterns, so a dump → parse → load round-trip is
     * bit-exact. Callable between begin()/advance() calls.
     */
    io::Json save_state() const;

    /**
     * Restore a snapshot into a *fresh* simulator built from the same
     * (hw, graph, traffic, options). Replaces begin(): call advance()
     * next. @throws std::runtime_error on a config-fingerprint mismatch
     * or malformed snapshot, std::logic_error after begin()/run().
     */
    void load_state(const io::Json& snapshot);

    /// Collect results after advance() returned true. Call once.
    SimResult finalize();

  private:
    friend SimResult simulate_trace(const core::HardwareModel&,
                                    const core::ExecutionGraph&,
                                    const traffic::PacketTrace&,
                                    SimOptions);
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Convenience: build, run, return.
SimResult simulate(const core::HardwareModel& hw,
                   const core::ExecutionGraph& graph,
                   const core::TrafficProfile& traffic,
                   SimOptions options = {});

/**
 * Replay a packet trace through the graph: sizes arrive in recorded order
 * (cyclically) at the trace's mean rate. Order effects — bursts of large
 * packets, alternating patterns — are preserved, unlike the histogram
 * profile the analytical model sees.
 */
SimResult simulate_trace(const core::HardwareModel& hw,
                         const core::ExecutionGraph& graph,
                         const traffic::PacketTrace& trace,
                         SimOptions options = {});

} // namespace lognic::sim

#endif // LOGNIC_SIM_NIC_SIMULATOR_HPP_
