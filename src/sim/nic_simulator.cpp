#include "lognic/sim/nic_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/sim/packet_slab.hpp"

namespace lognic::sim {

namespace {

using core::Edge;
using core::EdgeId;
using core::ExecutionGraph;
using core::HardwareModel;
using core::TrafficProfile;
using core::Vertex;
using core::VertexId;
using core::VertexKind;

/// A packet in flight. Owned by the simulator's packet slab: allocated at
/// arrival, recycled at delivery or drop; events and queues hold `Packet*`
/// (stable for the whole flight), never copies.
struct Packet {
    std::size_t class_index{0};
    Bytes app_size{Bytes{0.0}};
    SimTime created{0.0};
    /// Arrival ordinal; drives trace sampling and async-span correlation.
    std::uint64_t id{0};
    /// Set when entering a vertex queue; used for traced wait spans.
    SimTime enqueued{0.0};
    /// True when this packet carries lifecycle spans (sampled).
    bool traced{false};
};

/// Fixed latency-histogram buckets (microseconds, log-spaced). Fixed
/// across runs so replication snapshots aggregate bucket-wise.
const std::vector<double>&
latency_bounds_us()
{
    static const std::vector<double> bounds{
        1.0,    2.0,    5.0,    10.0,   20.0,    50.0,    100.0,
        200.0,  500.0,  1000.0, 2000.0, 5000.0,  10000.0, 20000.0,
        50000.0};
    return bounds;
}

/// FIFO bandwidth server: transfers serialize, later ones wait.
struct LinkServer {
    Bandwidth bw{Bandwidth::from_gbps(0.0)};
    SimTime free_at{0.0};
    /// Fault-injected bandwidth multiplier in (0, 1]; 1.0 = healthy. Only
    /// transfers *starting* after a degrade event are reshaped — a
    /// transfer already on the wire keeps its committed completion time.
    double factor{1.0};

    /// Returns the completion time of a transfer of @p payload starting not
    /// earlier than @p now.
    SimTime occupy(SimTime now, Bytes payload)
    {
        const SimTime start = std::max(now, free_at);
        free_at = start + (payload / (bw * factor)).seconds();
        return free_at;
    }
};

/// Cause slots for the lifetime drop accounting.
enum DropCause : int {
    kDropOverflow = 0,   ///< finite queue was full
    kDropBurstLoss = 1,  ///< fault-injected transient drop burst
    kDropEngineFail = 2, ///< in-service request lost to an engine failure
};

} // namespace

void
validate(const SimOptions& options)
{
    if (options.duration <= 0.0)
        throw std::invalid_argument("NicSimulator: duration must be > 0");
    if (!(options.warmup_fraction >= 0.0) || options.warmup_fraction >= 1.0)
        throw std::invalid_argument(
            "NicSimulator: warmup_fraction must be in [0, 1), got "
            + std::to_string(options.warmup_fraction));
    if (options.burst.enabled) {
        if (!options.poisson_arrivals)
            throw std::invalid_argument(
                "NicSimulator: bursts require Poisson arrivals");
        const double on = options.burst.on.seconds();
        const double off = options.burst.off.seconds();
        if (on <= 0.0 || off <= 0.0 || options.burst.intensity < 1.0)
            throw std::invalid_argument(
                "NicSimulator: malformed burst model");
        const double p_on = on / (on + off);
        if (options.burst.intensity * p_on > 1.0 + 1e-12)
            throw std::invalid_argument(
                "NicSimulator: burst intensity exceeds the mean "
                "(intensity * on-fraction must be <= 1)");
    }
    options.faults.validate();
}

const VertexStats&
SimResult::busiest() const
{
    static const VertexStats empty{};
    const VertexStats* best = &empty;
    for (const auto& vs : vertex_stats) {
        if (vs.utilization > best->utilization)
            best = &vs;
    }
    return *best;
}

struct NicSimulator::Impl {
    const HardwareModel& hw;
    const ExecutionGraph& graph;
    const TrafficProfile traffic;
    const SimOptions options;

    EventQueue events;
    Rng rng;
    SimTime warmup_end;
    LatencyRecorder latencies;
    ThroughputMeter delivered;
    /// Arrivals and drops inside the (warmup_end, horizon] window; their
    /// ratio is the reported drop_rate (same window as completions).
    WindowedCounter offered_in_window;
    WindowedCounter drops_in_window;
    obs::Histogram latency_hist{latency_bounds_us()};
    /// In-flight packet records; recycled rather than heap-allocated per
    /// arrival (see packet_slab.hpp for the determinism argument).
    Slab<Packet> packet_slab;
    std::uint64_t generated{0};

    // --- lifetime conservation accounting -----------------------------------
    // generated == completed_total + sum(dropped_cause) + in_transit
    //              + queued + busy, asserted at end of run.
    std::uint64_t completed_total{0};
    std::uint64_t dropped_cause[3]{0, 0, 0};
    /// Packets between vertices: in an overhead delay or a link transfer.
    std::uint64_t in_transit{0};

    // --- fault injection (inert when the plan is empty) ---------------------
    const bool faults_active;
    /// Monotonic id for in-service requests, so a fault instant can
    /// neutralize their already-scheduled completion events.
    std::uint64_t next_serial{0};
    std::unordered_set<std::uint64_t> killed;
    struct ScheduledFault {
        double at{0.0};
        fault::FaultKind kind{fault::FaultKind::kEngineFail};
        bool inverse{false}; ///< auto-generated end of a `duration` window
        int link{-1};        ///< 0 = interface, 1 = memory, -1 = vertex
        VertexId v{0};
        std::uint32_t count{1};
        double factor{1.0};
        double probability{1.0};
        std::uint32_t capacity{1};
        std::string label; ///< "<kind>[/end]:<target>" for the trace
    };
    std::vector<ScheduledFault> scheduled_faults;
    obs::TrackId fault_track{0};
    std::uint64_t fault_events_applied{0};

    // --- tracing (inert when trace.sink is null) ----------------------------
    const obs::TraceOptions trace_opts;
    struct VertexTracks {
        obs::TrackId queue{0};               ///< counters, waits, drops
        std::vector<obs::TrackId> engines;   ///< one lane per engine slot
        std::vector<std::uint8_t> slot_busy; ///< traced-slot allocator
    };
    std::vector<VertexTracks> tracks;

    // --- static per-vertex/per-class tables ---------------------------------

    struct VertexState {
        // Static:
        std::uint32_t engines{1};
        std::uint32_t capacity{1};
        double service_scv{1.0};
        std::vector<double> service_mean; ///< per class, seconds
        /// Per class: service_mean * slow_factor under service_scv (0 when
        /// exponential_service is off). Rebuilt with slow_factor.
        std::vector<ServiceLaw> service_law;
        std::vector<EdgeId> out;
        /// Delta weights of `out`, when it has several edges and a
        /// positive delta sum; otherwise departures pick uniformly.
        std::optional<WeightTable> out_weights;
        bool passthrough{false};
        Seconds overhead{0.0};
        // Queueing structure: one FIFO by default; one FIFO per in-edge
        // (round-robin served, split capacity) when the vertex asks for
        // per-input queues (Figure 2b). Queued packets are slab handles.
        std::vector<std::deque<Packet*>> queues;
        std::size_t queued{0}; ///< requests in all of `queues`
        std::uint32_t per_queue_capacity{1};
        std::size_t rr_cursor{0}; ///< index of the last queue served
        std::uint32_t busy{0};
        // Dynamic fault state (defaults = healthy; untouched when the
        // plan is empty, so the fault-free fast path is unchanged):
        std::uint32_t engines_offline{0};
        double slow_factor{1.0};       ///< service-time multiplier (>= 1)
        double drop_prob{0.0};         ///< active drop-burst probability
        std::uint32_t capacity_override{0}; ///< 0 = use static capacity
        /// In-service requests, tracked only while a fault plan is active
        /// so a fail-stop can requeue/drop them (swap-removed: order is
        /// arbitrary but deterministic).
        struct InService {
            std::uint64_t serial{0};
            Packet* pkt{nullptr};
            std::size_t qi{0};
            std::size_t slot{0};
        };
        std::vector<InService> in_service;
        // Credit window (credits > 0 only; see depart()). Held packets
        // are done at their upstream vertex and wait there for a credit.
        std::uint32_t credits{0};
        std::uint32_t credits_free{0};
        struct Held {
            Packet* pkt{nullptr};
            EdgeId edge{0}; ///< the edge the packet leaves on
        };
        std::deque<Held> held;

        std::uint32_t available() const
        {
            return engines_offline >= engines ? 0u : engines - engines_offline;
        }
        // Measurement (accumulated after warmup):
        double area_busy{0.0};     ///< integral of busy engines over time
        double area_occupancy{0.0}; ///< integral of (queue + busy)
        SimTime last_change{0.0};
        std::uint64_t served{0};
        std::uint64_t vertex_dropped{0};
    };
    std::vector<VertexState> vertices;
    /// Some vertex has a credit window; when false, departures skip the
    /// window check entirely.
    bool windows_active{false};

    /// What the handlers read of an edge, copied out of the graph once.
    struct EdgeInfo {
        VertexId from{0};
        VertexId to{0};
        double alpha{0.0};
        double beta{0.0};
        double delta{0.0};
        bool dedicated{false};
        /// The queue at `to` that the edge feeds (0 for a shared FIFO).
        std::size_t queue{0};
    };
    std::vector<EdgeInfo> edges;

    LinkServer interface_link;
    LinkServer memory_link;
    std::vector<LinkServer> dedicated_links; ///< one per edge (unused if none)

    /// Packet-count weights per class; arrivals draw the class from it.
    std::optional<WeightTable> class_weights;
    double total_pps{0.0};
    /// Request granularity per class, in bytes.
    std::vector<double> class_granularity;
    std::vector<VertexId> ingresses;
    /// Delta shares per ingress, when there are several.
    std::optional<WeightTable> ingress_weights;

    // Trace replay (optional): recorded sizes arrive in order.
    const traffic::PacketTrace* trace{nullptr};
    std::vector<std::size_t> trace_class; ///< profile class per position
    std::size_t trace_pos{0};

    // --- segmented execution -------------------------------------------------
    // A snapshot reads what is pending off the calendar (save_json()), so
    // run() and the segmented API execute the same handlers.
    bool started{false};
    bool finalized{false};
    /// config_fingerprint()'s digest of the scenario and fault plan,
    /// computed on first use (only segmented runs ever need it).
    mutable std::string config_digest;
    /// Outcome of the last advance() segment; kEventBudget until a segment
    /// actually finishes the run.
    RunOutcome last_outcome{RunOutcome::kEventBudget};

    // --- events --------------------------------------------------------------
    // One named functor per kind of pending event, so that save_json() can
    // read each one's fields back off the calendar (Action::target).

    /// The arrival generator's next draw.
    struct ArrivalEvent {
        Impl* s;
        double peak;
        void operator()() const { s->arrival_event(peak); }
    };
    /// scheduled_faults[index] takes effect.
    struct FaultEvent {
        Impl* s;
        std::size_t index;
        void operator()() const { s->apply_fault(s->scheduled_faults[index]); }
    };
    /// @p pkt reaches transfer stage @p stage of edge @p edge.
    struct TransferEvent {
        Impl* s;
        Packet* pkt;
        EdgeId edge;
        int stage;
        void operator()() const { s->transfer_stage(pkt, edge, stage); }
    };
    /// @p pkt's service at @p v ends, unless a fault killed @p serial.
    struct ServiceEvent {
        Impl* s;
        Packet* pkt;
        VertexId v;
        std::size_t slot;
        SimTime start;
        SimTime service;
        std::uint64_t serial;
        void operator()() const
        {
            s->complete_service(pkt, v, slot, start, service, serial);
        }
    };
    /// One of @p w's credits returns.
    struct CreditEvent {
        Impl* s;
        VertexId w;
        void operator()() const { s->credit_returned(w); }
    };

    Impl(const HardwareModel& hw_in, const ExecutionGraph& graph_in,
         const TrafficProfile& traffic_in, SimOptions options_in)
        : hw(hw_in), graph(graph_in), traffic(traffic_in),
          options(options_in), rng(options_in.seed),
          warmup_end(options_in.duration * options_in.warmup_fraction),
          latencies(warmup_end), delivered(warmup_end),
          offered_in_window(warmup_end, options_in.duration),
          drops_in_window(warmup_end, options_in.duration),
          faults_active(!options_in.faults.empty()),
          trace_opts(options_in.trace)
    {
        graph.validate(hw);
        sim::validate(options);

        interface_link.bw = hw.interface_bandwidth();
        memory_link.bw = hw.memory_bandwidth();
        dedicated_links.resize(graph.edge_count());
        edges.resize(graph.edge_count());
        for (EdgeId e = 0; e < graph.edge_count(); ++e) {
            const Edge& edge = graph.edge(e);
            edges[e] = EdgeInfo{edge.from,         edge.to,
                                edge.params.alpha, edge.params.beta,
                                edge.params.delta,
                                edge.params.dedicated_bw.has_value()};
            if (edge.params.dedicated_bw)
                dedicated_links[e].bw = *edge.params.dedicated_bw;
        }

        build_vertex_tables();
        build_arrival_tables();
        if (faults_active)
            resolve_faults();
        if (trace_opts.sink != nullptr)
            register_tracks();

        ingresses = graph.ingress_vertices();
        if (ingresses.size() > 1) {
            std::vector<double> shares(ingresses.size(), 0.0);
            double total = 0.0;
            for (std::size_t i = 0; i < ingresses.size(); ++i) {
                for (EdgeId e : graph.out_edges(ingresses[i]))
                    shares[i] += edges[e].delta;
                total += shares[i];
            }
            if (total <= 0.0)
                shares.assign(ingresses.size(), 1.0);
            ingress_weights.emplace(std::move(shares));
        }
    }

    void
    build_vertex_tables()
    {
        const std::size_t nclasses = traffic.classes().size();
        vertices.resize(graph.vertex_count());
        for (VertexId v = 0; v < graph.vertex_count(); ++v) {
            const Vertex& vx = graph.vertex(v);
            VertexState& st = vertices[v];
            st.out = graph.out_edges(v);
            if (st.out.size() > 1) {
                // validate() keeps every delta finite and in [0, 1], so a
                // positive sum is all the table needs.
                std::vector<double> deltas;
                double sum = 0.0;
                for (EdgeId e : st.out) {
                    deltas.push_back(edges[e].delta);
                    sum += edges[e].delta;
                }
                if (sum > 0.0)
                    st.out_weights.emplace(std::move(deltas));
            }
            st.overhead = vx.params.overhead;

            if (vx.kind == VertexKind::kIngress
                || vx.kind == VertexKind::kEgress) {
                st.passthrough = true;
                continue;
            }

            const auto ins = graph.in_edges(v);
            if (vx.params.per_input_queues && ins.size() > 1) {
                st.queues.resize(ins.size());
                for (std::size_t q = 0; q < ins.size(); ++q)
                    edges[ins[q]].queue = q;
            } else {
                st.queues.resize(1);
            }

            st.service_mean.resize(nclasses);
            for (std::size_t c = 0; c < nclasses; ++c) {
                // Requests keep the ingress granularity (delta steers
                // traffic; it does not shrink payloads).
                const Bytes req = traffic.granularity(c);
                if (vx.kind == VertexKind::kRateLimiter) {
                    st.engines = 1;
                    st.capacity = std::max<std::uint32_t>(
                        vx.params.queue_capacity, 1);
                    st.service_mean[c] = (req / vx.rate_limit).seconds();
                } else {
                    const core::IpSpec& spec = hw.ip(vx.ip);
                    st.engines = vx.params.parallelism > 0
                        ? vx.params.parallelism
                        : spec.max_engines;
                    st.capacity = vx.params.queue_capacity > 0
                        ? vx.params.queue_capacity
                        : spec.default_queue_capacity;
                    st.service_scv = spec.service_scv;
                    // A partitioned IP (gamma < 1) time-slices its engines.
                    const double share = vx.params.partition;
                    st.service_mean[c] = spec.roofline.engine()
                                             .service_time(req)
                                             .seconds()
                        / (share * vx.params.acceleration);
                }
            }
            build_service_laws(st);
            st.per_queue_capacity = std::max<std::uint32_t>(
                1, st.capacity
                       / static_cast<std::uint32_t>(st.queues.size()));
            st.credits = vx.params.credits; // validated: IP vertices only
            st.credits_free = st.credits;
            windows_active = windows_active || st.credits > 0;
        }
    }

    /// The vertex's per-class service laws at its current slow_factor
    /// (exactly 1.0 unless a slowdown fault is in force).
    void
    build_service_laws(VertexState& st) const
    {
        // exponential_service = false forces determinism everywhere;
        // otherwise each IP's own variability (SCV) governs.
        const double scv = options.exponential_service ? st.service_scv : 0.0;
        st.service_law.clear();
        for (double mean : st.service_mean)
            st.service_law.emplace_back(mean * st.slow_factor, scv);
    }

    void
    build_arrival_tables()
    {
        const auto& classes = traffic.classes();
        // The ingress engine cannot admit traffic faster than the port
        // speed, no matter what load is offered.
        const double admitted_bytes_per_sec =
            std::min(traffic.ingress_bandwidth().bytes_per_sec(),
                     hw.line_rate().bytes_per_sec());
        std::vector<double> class_pps_weight;
        class_pps_weight.reserve(classes.size());
        total_pps = 0.0;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            // Byte weight w at size s contributes w * BW_in / s packets/s.
            const double pps = classes[c].weight * admitted_bytes_per_sec
                / classes[c].size.bytes();
            class_pps_weight.push_back(pps);
            total_pps += pps;
            class_granularity.push_back(traffic.granularity(c).bytes());
        }
        if (total_pps <= 0.0)
            throw std::invalid_argument("NicSimulator: zero arrival rate");
        class_weights.emplace(std::move(class_pps_weight));
        // Burst-model invariants are checked by validate(SimOptions) at
        // construction, before any tables are built.
    }

    /**
     * Resolve every fault target to a vertex or shared link and expand
     * `duration` windows into (apply, inverse) pairs clipped to the run.
     * Unknown or unusable targets throw here, at construction — a typo in
     * a plan should not surface as a silent no-op mid-campaign.
     */
    void
    resolve_faults()
    {
        for (const fault::FaultEvent& ev : options.faults.sorted()) {
            ScheduledFault f;
            f.at = ev.at;
            f.kind = ev.kind;
            f.count = ev.count;
            f.factor = ev.factor;
            f.probability = ev.probability;
            f.capacity = ev.capacity;
            f.label = std::string(fault::to_string(ev.kind)) + ":" + ev.target;
            const std::size_t at = fault::resolve_target(ev, graph);
            if (ev.kind == fault::FaultKind::kLinkDegrade)
                f.link = static_cast<int>(at);
            else
                f.v = static_cast<VertexId>(at);
            if (f.at > options.duration)
                continue;
            scheduled_faults.push_back(f);
            if (ev.duration > 0.0 && ev.at + ev.duration <= options.duration) {
                ScheduledFault inv = f;
                inv.at = ev.at + ev.duration;
                inv.inverse = true;
                inv.label = std::string(fault::to_string(ev.kind)) + "/end:"
                    + ev.target;
                scheduled_faults.push_back(inv);
            }
        }
        std::stable_sort(scheduled_faults.begin(), scheduled_faults.end(),
                         [](const ScheduledFault& a, const ScheduledFault& b) {
                             return a.at < b.at;
                         });
    }

    /// Schedule the resolved plan. Faults scheduled before the first
    /// arrival sort ahead of same-instant packet events (FIFO tie-break),
    /// so a fault "at t" is always in force for arrivals at t.
    void
    schedule_faults()
    {
        for (std::size_t i = 0; i < scheduled_faults.size(); ++i)
            events.schedule_at(scheduled_faults[i].at, FaultEvent{this, i});
    }

    void
    apply_fault(const ScheduledFault& f)
    {
        ++fault_events_applied;
        if (trace_opts.sink != nullptr)
            trace_opts.sink->instant(fault_track, f.label,
                                     Seconds{events.now()});
        switch (f.kind) {
          case fault::FaultKind::kLinkDegrade: {
            LinkServer& link = f.link == 0 ? interface_link : memory_link;
            link.factor = f.inverse ? 1.0 : f.factor;
            break;
          }
          case fault::FaultKind::kEngineFail:
            if (f.inverse)
                recover_engines(f.v, f.count);
            else
                fail_engines(f.v, f.count);
            break;
          case fault::FaultKind::kEngineRecover:
            if (f.inverse)
                fail_engines(f.v, f.count);
            else
                recover_engines(f.v, f.count);
            break;
          case fault::FaultKind::kSlowdown:
            vertices[f.v].slow_factor = f.inverse ? 1.0 : f.factor;
            build_service_laws(vertices[f.v]);
            break;
          case fault::FaultKind::kDropBurst:
            vertices[f.v].drop_prob = f.inverse ? 0.0 : f.probability;
            break;
          case fault::FaultKind::kQueueCapacity:
            vertices[f.v].capacity_override = f.inverse ? 0 : f.capacity;
            break;
        }
    }

    /**
     * Take @p count engines of @p v offline. In-service requests that no
     * longer have an engine are aborted at this instant: their scheduled
     * completion is neutralized via the killed-serial set, and the request
     * is either requeued at the head of its queue (the queue may
     * transiently exceed capacity — the request never left the device) or
     * dropped with cause engine_fail, per the plan's in-service policy.
     */
    void
    fail_engines(VertexId v, std::uint32_t count)
    {
        VertexState& st = vertices[v];
        touch(st);
        // Saturate in 64 bits: the uint32 sum wraps for a large count.
        st.engines_offline = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            st.engines, std::uint64_t{st.engines_offline} + count));
        while (st.busy > st.available()) {
            const VertexState::InService victim = st.in_service.back();
            st.in_service.pop_back();
            killed.insert(victim.serial);
            --st.busy;
            if (victim.pkt->traced)
                tracks[v].slot_busy[victim.slot] = 0;
            if (options.faults.in_service_policy
                == fault::InServicePolicy::kRequeue) {
                // Still inside v: the request keeps its credit.
                victim.pkt->enqueued = events.now();
                st.queues[victim.qi].push_front(victim.pkt);
                ++st.queued;
            } else {
                lose(victim.pkt, v, st, kDropEngineFail);
            }
        }
        trace_counters(v, st);
    }

    void
    recover_engines(VertexId v, std::uint32_t count)
    {
        VertexState& st = vertices[v];
        touch(st);
        st.engines_offline =
            count >= st.engines_offline ? 0u : st.engines_offline - count;
        trace_counters(v, st);
        try_dispatch(v);
    }

    /// One queue track plus one lane per engine for every queueing vertex.
    void
    register_tracks()
    {
        obs::TraceSink& sink = *trace_opts.sink;
        if (faults_active)
            fault_track = sink.register_track("faults");
        tracks.resize(vertices.size());
        for (VertexId v = 0; v < graph.vertex_count(); ++v) {
            const VertexState& st = vertices[v];
            if (st.passthrough)
                continue;
            VertexTracks& vt = tracks[v];
            const std::string& name = graph.vertex(v).name;
            vt.queue = sink.register_track(name);
            vt.engines.reserve(st.engines);
            for (std::uint32_t e = 0; e < st.engines; ++e)
                vt.engines.push_back(sink.register_track(
                    name + "/e" + std::to_string(e)));
            vt.slot_busy.assign(st.engines, 0);
        }
    }

    /// Emit the vertex's queue-depth and busy-engine counter samples when
    /// tracing; otherwise this is one inline test.
    void
    trace_counters(VertexId v, const VertexState& st)
    {
        if (trace_opts.sink != nullptr)
            emit_counters(v, st);
    }

    [[gnu::noinline]] void
    emit_counters(VertexId v, const VertexState& st)
    {
        const Seconds now{events.now()};
        const VertexTracks& vt = tracks[v];
        trace_opts.sink->counter(vt.queue, "queue_depth", now,
                                 static_cast<double>(st.queued));
        trace_opts.sink->counter(vt.queue, "busy", now,
                                 static_cast<double>(st.busy));
        if (st.credits > 0)
            trace_opts.sink->counter(vt.queue, "credits_free", now,
                                     static_cast<double>(st.credits_free));
    }

    /// Instantaneous arrival-rate multiplier under the burst model
    /// (deterministic ON/OFF cycle, Poisson within each phase).
    double
    rate_multiplier(SimTime t) const
    {
        if (!options.burst.enabled)
            return 1.0;
        const double on = options.burst.on.seconds();
        const double off = options.burst.off.seconds();
        const double phase = std::fmod(t, on + off);
        const double p_on = on / (on + off);
        if (phase < on)
            return options.burst.intensity;
        // Compensating OFF rate keeps the long-run mean at total_pps.
        return (1.0 - options.burst.intensity * p_on) / (1.0 - p_on);
    }

    // --- dynamics -------------------------------------------------------------

    /// Accumulate a vertex's busy/occupancy areas up to the current time.
    void
    touch(VertexState& st)
    {
        const SimTime now = events.now();
        if (now <= warmup_end) {
            st.last_change = warmup_end;
            return;
        }
        const SimTime from = std::max(st.last_change, warmup_end);
        const double dt = now - from;
        if (dt > 0.0) {
            st.area_busy += dt * static_cast<double>(st.busy);
            st.area_occupancy += dt
                * static_cast<double>(st.busy + st.queued);
        }
        st.last_change = now;
    }

    void
    schedule_next_arrival()
    {
        // Thinning (Lewis-Shedler): sample at the peak rate and accept
        // with probability rate(t) / peak — exact for the piecewise-
        // constant burst profile, and exactly Poisson when bursts are off.
        const double peak = options.burst.enabled
            ? total_pps * options.burst.intensity
            : total_pps;
        const double gap = options.poisson_arrivals
            ? rng.exponential(1.0 / peak)
            : 1.0 / total_pps;
        events.schedule_in(gap, ArrivalEvent{this, peak});
    }

    /// Body of the arrival-generator event.
    void
    arrival_event(double peak)
    {
        if (events.now() >= options.duration)
            return;
        if (options.burst.enabled
            && rng.uniform()
                > rate_multiplier(events.now()) * total_pps / peak) {
            schedule_next_arrival(); // thinned out
            return;
        }
        Packet* pkt = packet_slab.acquire();
        if (trace != nullptr) {
            pkt->class_index =
                trace_class[trace_pos % trace_class.size()];
            ++trace_pos;
        } else {
            pkt->class_index = rng.weighted_index(*class_weights);
        }
        pkt->app_size = traffic.classes()[pkt->class_index].size;
        pkt->created = events.now();
        pkt->id = generated;
        pkt->traced = trace_opts.sampled(pkt->id);
        ++generated;
        offered_in_window.record(events.now());
        if (pkt->traced)
            trace_opts.sink->async_begin(pkt->id, "pkt",
                                         Seconds{events.now()});
        const std::size_t which =
            ingress_weights ? rng.weighted_index(*ingress_weights) : 0;
        depart(pkt, ingresses[which]);
        schedule_next_arrival();
    }

    /// The packet finished at @p v (or passed through); move it on. At
    /// egress the slab slot is recycled once the record is measured.
    void
    depart(Packet* pkt, VertexId v)
    {
        VertexState& st = vertices[v];
        if (st.out.empty()) { // egress
            ++completed_total;
            latencies.record(events.now(),
                             Seconds{events.now() - pkt->created});
            delivered.record(events.now(), pkt->app_size);
            if (events.now() > warmup_end)
                latency_hist.record(
                    Seconds{events.now() - pkt->created}.micros());
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt",
                                           Seconds{events.now()});
            packet_slab.release(pkt);
            return;
        }
        // Pick the outgoing edge by delta weights.
        std::size_t pick = 0;
        if (st.out.size() > 1) {
            pick = st.out_weights
                ? rng.weighted_index(*st.out_weights)
                : static_cast<std::size_t>(rng.uniform()
                                           * static_cast<double>(
                                               st.out.size()));
            pick = std::min(pick, st.out.size() - 1);
        }
        const EdgeId eid = st.out[pick];

        // A credited target admits the packet only against a free credit;
        // without one the packet waits here, in the target's held FIFO.
        if (windows_active) {
            const VertexId to = edges[eid].to;
            VertexState& ts = vertices[to];
            if (ts.credits > 0) {
                if (ts.credits_free == 0) {
                    hold(pkt, to, ts, eid);
                    return;
                }
                --ts.credits_free;
                trace_counters(to, ts);
            }
        }
        send(pkt, eid, st.overhead.seconds());
    }

    /// Start @p pkt's hop over edge @p eid: the source vertex's overhead
    /// O_i (@p overhead) first, then the transfer chain. Each link must be
    /// occupied *at the moment the packet reaches it* — reserving a link
    /// for a future instant would block other packets' transfers for the
    /// whole overhead duration.
    void
    send(Packet* pkt, EdgeId eid, double overhead)
    {
        ++in_transit; // in an overhead delay or link transfer
        events.schedule_in(overhead, TransferEvent{this, pkt, eid, 0});
    }

    /// Park @p pkt (bound for credited vertex @p w over @p eid) until one
    /// of w's credits returns; the FIFO holds at most N_w packets.
    void
    hold(Packet* pkt, VertexId w, VertexState& ws, EdgeId eid)
    {
        const std::uint32_t cap =
            ws.capacity_override > 0 ? ws.capacity_override : ws.capacity;
        if (ws.held.size() >= cap) {
            drop(pkt, w, ws, kDropOverflow);
            return;
        }
        ws.held.push_back({pkt, eid});
    }

    /// Return one of @p w's credits O_w from now, once w has finished
    /// (or lost) a packet that held it.
    void
    return_credit(VertexId w)
    {
        events.schedule_in(vertices[w].overhead.seconds(),
                           CreditEvent{this, w});
    }

    /// Body of a credit-return event: the oldest held packet, if any,
    /// takes the credit straight away and leaves its upstream vertex.
    void
    credit_returned(VertexId w)
    {
        VertexState& ws = vertices[w];
        if (ws.held.empty()) {
            ++ws.credits_free;
        } else {
            const VertexState::Held h = ws.held.front();
            ws.held.pop_front();
            send(h.pkt, h.edge,
                 vertices[edges[h.edge].from].overhead.seconds());
        }
        trace_counters(w, ws);
    }

    /// Run transfer stage @p stage (0 = interface, 1 = memory,
    /// 2 = dedicated link) of edge @p eid, then deliver.
    void
    transfer_stage(Packet* pkt, EdgeId eid, int stage)
    {
        const EdgeInfo& e = edges[eid];
        const double g_in = class_granularity[pkt->class_index];
        for (; stage < 3; ++stage) {
            LinkServer* link = nullptr;
            Bytes payload{0.0};
            if (stage == 0 && e.alpha > 0.0) {
                link = &interface_link;
                payload = Bytes{g_in * e.alpha};
            } else if (stage == 1 && e.beta > 0.0) {
                link = &memory_link;
                payload = Bytes{g_in * e.beta};
            } else if (stage == 2 && e.dedicated) {
                link = &dedicated_links[eid];
                payload = Bytes{g_in * e.delta};
            }
            if (link != nullptr) {
                const SimTime end = link->occupy(events.now(), payload);
                events.schedule_at(end,
                                   TransferEvent{this, pkt, eid, stage + 1});
                return;
            }
        }
        arrive(pkt, e.to, eid);
    }

    /// A packet loss at vertex @p v: account it by cause (lifetime) and in
    /// the measurement window, close the packet's trace spans, and recycle
    /// the slab slot (the caller's pointer is dead after this).
    void
    drop(Packet* pkt, VertexId v, VertexState& st, DropCause cause)
    {
        ++dropped_cause[cause];
        drops_in_window.record(events.now());
        if (events.now() > warmup_end)
            ++st.vertex_dropped;
        if (trace_opts.sink != nullptr) {
            trace_opts.sink->instant(tracks[v].queue, "drop",
                                     Seconds{events.now()});
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt",
                                           Seconds{events.now()});
        }
        packet_slab.release(pkt);
    }

    /// A packet lost inside queueing vertex @p v: beyond drop(), it gives
    /// back the credit it took to enter v.
    void
    lose(Packet* pkt, VertexId v, VertexState& st, DropCause cause)
    {
        drop(pkt, v, st, cause);
        if (st.credits > 0)
            return_credit(v);
    }

    void
    arrive(Packet* pkt, VertexId v, EdgeId via)
    {
        --in_transit; // the inter-vertex hop that started in depart() ended
        VertexState& st = vertices[v];
        if (st.passthrough) {
            depart(pkt, v);
            return;
        }
        if (faults_active && st.drop_prob > 0.0
            && rng.uniform() < st.drop_prob) {
            lose(pkt, v, st, kDropBurstLoss);
            return;
        }
        const std::size_t qi = edges[via].queue;
        // A fault-injected capacity override shrinks the whole vertex
        // budget; per-input queues split the override the same way they
        // split the static capacity.
        const std::uint32_t cap =
            st.capacity_override > 0 ? st.capacity_override : st.capacity;
        if (st.queues.size() == 1) {
            // Shared FIFO: the whole capacity N bounds queue + service.
            if (st.queued + st.busy >= cap) {
                lose(pkt, v, st, kDropOverflow);
                return;
            }
        } else {
            const std::uint32_t pq_cap = st.capacity_override > 0
                ? std::max<std::uint32_t>(
                      1, cap / static_cast<std::uint32_t>(st.queues.size()))
                : st.per_queue_capacity;
            if (st.queues[qi].size() >= pq_cap) {
                // Per-input queue full: only this input's share overflows.
                lose(pkt, v, st, kDropOverflow);
                return;
            }
        }
        touch(st);
        pkt->enqueued = events.now();
        st.queues[qi].push_back(pkt);
        ++st.queued;
        trace_counters(v, st);
        try_dispatch(v);
    }

    void
    try_dispatch(VertexId v)
    {
        VertexState& st = vertices[v];
        auto next_queue = [&st]() -> std::deque<Packet*>* {
            // Round-robin scan starting after the last served queue.
            std::size_t q = st.rr_cursor;
            for (std::size_t i = 0; i < st.queues.size(); ++i) {
                if (++q == st.queues.size())
                    q = 0;
                if (!st.queues[q].empty()) {
                    st.rr_cursor = q;
                    return &st.queues[q];
                }
            }
            return nullptr;
        };
        std::deque<Packet*>* queue = nullptr;
        while (st.busy < st.available() && (queue = next_queue()) != nullptr) {
            touch(st);
            Packet* pkt = queue->front();
            queue->pop_front();
            --st.queued;
            ++st.busy;
            const double service =
                rng.service_time(st.service_law[pkt->class_index]);
            std::size_t slot = 0;
            if (pkt->traced) {
                trace_opts.sink->span(
                    tracks[v].queue, "wait", Seconds{pkt->enqueued},
                    Seconds{events.now() - pkt->enqueued});
                // Lowest free engine lane; traced in-service packets never
                // exceed the engine count, so a lane is always free.
                auto& lanes = tracks[v].slot_busy;
                while (slot + 1 < lanes.size() && lanes[slot])
                    ++slot;
                lanes[slot] = 1;
            }
            std::uint64_t serial = 0;
            if (faults_active) {
                serial = next_serial++;
                const auto qi =
                    static_cast<std::size_t>(queue - st.queues.data());
                st.in_service.push_back({serial, pkt, qi, slot});
            }
            trace_counters(v, st);
            const SimTime start = events.now();
            events.schedule_in(service, ServiceEvent{this, pkt, v, slot, start,
                                                     service, serial});
        }
    }

    /// Body of a service-completion event.
    void
    complete_service(Packet* pkt, VertexId v, std::size_t slot, SimTime start,
                     SimTime service, std::uint64_t serial)
    {
        if (faults_active) {
            // An engine failure may have aborted this request after its
            // completion was scheduled; the fault instant already
            // requeued/dropped it and fixed the busy count, so the stale
            // event must do nothing — not even read @p pkt, which may be
            // recycled (a restored stale event holds none).
            if (killed.erase(serial) > 0)
                return;
            auto& isv = vertices[v].in_service;
            for (std::size_t i = 0; i < isv.size(); ++i) {
                if (isv[i].serial == serial) {
                    isv[i] = std::move(isv.back());
                    isv.pop_back();
                    break;
                }
            }
        }
        VertexState& s2 = vertices[v];
        touch(s2);
        --s2.busy;
        ++s2.served;
        if (pkt->traced) {
            trace_opts.sink->span(tracks[v].engines[slot], "serve",
                                  Seconds{start}, Seconds{service});
            tracks[v].slot_busy[slot] = 0;
        }
        trace_counters(v, s2);
        try_dispatch(v);
        if (s2.credits > 0)
            return_credit(v);
        depart(pkt, v);
    }

    /// Guard shared by begin() and load_state(): segmented execution
    /// cannot coexist with streaming traces (spans are written out, not
    /// snapshotable), trace replay, or the watchdog (per-advance() budgets
    /// subsume it, and a wall-clock abort would not be deterministic).
    void
    check_segmentable() const
    {
        if (trace_opts.sink != nullptr)
            throw std::logic_error(
                "NicSimulator: segmented execution requires tracing off");
        if (trace != nullptr)
            throw std::logic_error(
                "NicSimulator: segmented execution does not support "
                "trace replay");
        if (options.watchdog.max_events != 0
            || options.watchdog.wall_clock_seconds > 0.0)
            throw std::logic_error(
                "NicSimulator: segmented execution requires an unset "
                "watchdog (advance() budgets subsume it)");
    }

    /// Build the SimResult from the end-of-run state. Shared by run() and
    /// finalize() — reads members only, so how the run was driven (one
    /// run_until or many advance() segments) cannot leak into the result.
    SimResult
    finalize_result(RunOutcome outcome)
    {
        // When truncated, the clock stopped short of the horizon; every
        // rate below normalizes to the time actually simulated.
        const SimTime end = events.now();

        SimResult r;
        r.truncated = outcome == RunOutcome::kEventBudget
            || outcome == RunOutcome::kAborted;
        if (outcome == RunOutcome::kEventBudget)
            r.truncation_reason = "event_budget";
        else if (outcome == RunOutcome::kAborted)
            r.truncation_reason = "wall_clock";
        r.sim_time_reached = end;
        r.events_executed = events.executed();
        r.delivered = delivered.bandwidth(end);
        r.delivered_ops = delivered.rate(end);
        // The single-writer phase is over: seal the recorder (one sort),
        // after which quantile reads are const and thread-safe.
        latencies.seal();
        // Empty-set sentinel: a run that completed nothing after warmup
        // keeps 0.0 latencies; consumers must gate on `completed` (the
        // runner's Replicator counts such runs as degenerate and excludes
        // them).
        r.mean_latency = latencies.mean().value_or(Seconds{0.0});
        r.p50_latency = latencies.p50().value_or(Seconds{0.0});
        r.p99_latency = latencies.p99().value_or(Seconds{0.0});
        r.generated = generated;
        r.completed = delivered.requests();
        // Drop accounting follows the (warmup_end, horizon] measurement
        // window, the same convention completions use: the rate is
        // windowed drops over windowed arrivals, an unbiased
        // blocking-probability estimate even at short horizons.
        const std::uint64_t offered = offered_in_window.count();
        r.dropped = drops_in_window.count();
        r.drop_rate = offered > 0
            ? static_cast<double>(r.dropped) / static_cast<double>(offered)
            : 0.0;

        // Close out the per-vertex accounting at the (possibly truncated)
        // end.
        const double window = end - warmup_end;
        std::uint64_t queued_or_busy = 0;
        for (core::VertexId v = 0; v < graph.vertex_count(); ++v) {
            auto& st = vertices[v];
            if (st.passthrough)
                continue;
            touch(st);
            queued_or_busy += st.queued + st.busy + st.held.size();
            VertexStats vs;
            vs.name = graph.vertex(v).name;
            if (window > 0.0) {
                vs.utilization = st.area_busy
                    / (window * static_cast<double>(st.engines));
                vs.mean_occupancy = st.area_occupancy / window;
            }
            vs.served = st.served;
            vs.dropped = st.vertex_dropped;
            r.vertex_stats.push_back(std::move(vs));
        }

        // Packet conservation: every generated packet must be delivered,
        // dropped, or still inside the device. A violation is a simulator
        // bug (double-count or leak), never a property of the scenario —
        // fail loud.
        r.completed_total = completed_total;
        r.dropped_total = dropped_cause[kDropOverflow]
            + dropped_cause[kDropBurstLoss]
            + dropped_cause[kDropEngineFail];
        r.in_flight = in_transit + queued_or_busy;
        if (r.generated != r.completed_total + r.dropped_total + r.in_flight)
            throw std::logic_error(
                "NicSimulator: packet conservation violated: generated="
                + std::to_string(r.generated) + " != completed="
                + std::to_string(r.completed_total) + " + dropped="
                + std::to_string(r.dropped_total) + " + in_flight="
                + std::to_string(r.in_flight));

        // Publish the structured snapshot mirroring (and extending) the
        // scalar fields; this is what the runner aggregates.
        obs::MetricsRegistry reg;
        reg.counter("sim.generated").add(r.generated);
        reg.counter("sim.offered").add(offered);
        reg.counter("sim.completed").add(r.completed);
        reg.counter("sim.dropped").add(r.dropped);
        reg.counter("sim.completed_total").add(r.completed_total);
        reg.counter("sim.dropped_total").add(r.dropped_total);
        reg.counter("sim.dropped_by_cause.overflow")
            .add(dropped_cause[kDropOverflow]);
        reg.counter("sim.dropped_by_cause.burst")
            .add(dropped_cause[kDropBurstLoss]);
        reg.counter("sim.dropped_by_cause.engine_fail")
            .add(dropped_cause[kDropEngineFail]);
        reg.counter("sim.in_flight").add(r.in_flight);
        reg.counter("sim.fault_events").add(fault_events_applied);
        reg.counter("sim.events_executed").add(r.events_executed);
        reg.gauge("sim.truncated").set(r.truncated ? 1.0 : 0.0);
        reg.gauge("sim.delivered_gbps").set(r.delivered.gbps());
        reg.gauge("sim.delivered_mops").set(r.delivered_ops.mops());
        reg.gauge("sim.drop_rate").set(r.drop_rate);
        reg.gauge("sim.mean_latency_us").set(r.mean_latency.micros());
        reg.gauge("sim.p50_latency_us").set(r.p50_latency.micros());
        reg.gauge("sim.p99_latency_us").set(r.p99_latency.micros());
        reg.histogram("sim.latency_us", latency_bounds_us()) = latency_hist;
        for (const VertexStats& vs : r.vertex_stats) {
            reg.counter("vertex." + vs.name + ".served").add(vs.served);
            reg.counter("vertex." + vs.name + ".dropped").add(vs.dropped);
            reg.gauge("vertex." + vs.name + ".utilization")
                .set(vs.utilization);
            reg.gauge("vertex." + vs.name + ".occupancy")
                .set(vs.mean_occupancy);
        }
        r.metrics = reg.snapshot();
        return r;
    }

    // --- snapshot serialization --------------------------------------------

    /// The configuration facts a snapshot is only valid against. Loading
    /// into a simulator whose fingerprint differs is rejected outright —
    /// resuming "almost the same" run would silently produce garbage. The
    /// digest covers what the counts cannot: the hardware, graph, traffic
    /// and fault plan encodings and the burst parameters, so a scenario
    /// edited to another rate (or a plan of the same length) is refused.
    io::Json
    config_fingerprint() const
    {
        if (config_digest.empty())
            config_digest = io::u64_to_hex(io::fnv1a64(
                io::to_json(hw).dump(-1) + io::to_json(graph).dump(-1)
                + io::to_json(traffic).dump(-1)
                + fault::to_json(options.faults).dump(-1)
                + io::double_to_hex(options.burst.on.seconds())
                + io::double_to_hex(options.burst.off.seconds())
                + io::double_to_hex(options.burst.intensity)));
        io::JsonObject fp;
        fp["digest"] = io::Json(config_digest);
        fp["seed"] = io::Json(io::u64_to_hex(options.seed));
        fp["duration"] = io::Json(io::double_to_hex(options.duration));
        fp["warmup_fraction"] =
            io::Json(io::double_to_hex(options.warmup_fraction));
        fp["exponential_service"] = io::Json(options.exponential_service);
        fp["poisson_arrivals"] = io::Json(options.poisson_arrivals);
        fp["burst"] = io::Json(options.burst.enabled);
        fp["vertices"] = io::Json(static_cast<double>(graph.vertex_count()));
        fp["edges"] = io::Json(static_cast<double>(graph.edge_count()));
        fp["classes"] =
            io::Json(static_cast<double>(traffic.classes().size()));
        fp["faults"] =
            io::Json(static_cast<double>(scheduled_faults.size()));
        return io::Json(std::move(fp));
    }

    /// The packets a snapshot carries, by id.
    using PacketIndex = std::map<std::uint64_t, const Packet*>;

    /// @p p's id, with @p p noted in @p packets.
    static io::Json
    packet_ref(const Packet* p, PacketIndex& packets)
    {
        packets.emplace(p->id, p);
        return io::Json(io::u64_to_hex(p->id));
    }

    static io::Json
    packet_to_json(const Packet& p)
    {
        io::JsonObject o;
        o["id"] = io::Json(io::u64_to_hex(p.id));
        o["class"] = io::Json(static_cast<double>(p.class_index));
        o["size"] = io::Json(io::double_to_hex(p.app_size.bytes()));
        o["created"] = io::Json(io::double_to_hex(p.created));
        o["enqueued"] = io::Json(io::double_to_hex(p.enqueued));
        return io::Json(std::move(o));
    }

    /// The calendar, oldest seq first: each pending event's kind, (when,
    /// seq) and fields. The packets the events hold go into @p packets.
    io::Json
    events_to_json(PacketIndex& packets) const
    {
        std::map<std::uint64_t, std::pair<SimTime, const EventQueue::Action*>>
            by_seq;
        events.for_each_pending([&by_seq](SimTime when, std::uint64_t seq,
                                          const EventQueue::Action& action) {
            by_seq.emplace(seq, std::pair{when, &action});
        });
        auto num = [](auto n) { return io::Json(static_cast<double>(n)); };
        io::JsonArray arr;
        for (const auto& [seq, pending] : by_seq) {
            const auto& [when, action] = pending;
            io::JsonObject e;
            e["when"] = io::Json(io::double_to_hex(when));
            e["seq"] = io::Json(io::u64_to_hex(seq));
            if (const auto* a = action->target<ArrivalEvent>()) {
                e["kind"] = "arrival";
                e["peak"] = io::Json(io::double_to_hex(a->peak));
            } else if (const auto* f = action->target<FaultEvent>()) {
                e["kind"] = "fault";
                e["index"] = num(f->index);
            } else if (const auto* t = action->target<TransferEvent>()) {
                e["kind"] = "transfer";
                e["packet"] = packet_ref(t->pkt, packets);
                e["edge"] = num(t->edge);
                e["stage"] = num(t->stage);
            } else if (const auto* c = action->target<ServiceEvent>()) {
                e["kind"] = "service";
                // A killed completion's request was requeued or lost when
                // its engine failed: its packet may since have moved on or
                // been recycled, and complete_service() never reads it.
                if (killed.count(c->serial) == 0)
                    e["packet"] = packet_ref(c->pkt, packets);
                e["vertex"] = num(c->v);
                e["slot"] = num(c->slot);
                e["start"] = io::Json(io::double_to_hex(c->start));
                e["service"] = io::Json(io::double_to_hex(c->service));
                e["serial"] = io::Json(io::u64_to_hex(c->serial));
            } else if (const auto* r = action->target<CreditEvent>()) {
                e["kind"] = "credit";
                e["vertex"] = num(r->w);
            } else {
                throw std::logic_error(
                    "NicSimulator::save_state: unknown pending event");
            }
            arr.push_back(io::Json(std::move(e)));
        }
        return io::Json(std::move(arr));
    }

    static io::Json
    link_to_json(const LinkServer& l)
    {
        io::JsonObject o;
        o["free_at"] = io::Json(io::double_to_hex(l.free_at));
        o["factor"] = io::Json(io::double_to_hex(l.factor));
        return io::Json(std::move(o));
    }

    io::Json
    save_json() const
    {
        if (!started)
            throw std::logic_error(
                "NicSimulator::save_state: begin() not called");
        if (finalized)
            throw std::logic_error(
                "NicSimulator::save_state: already finalized");
        io::JsonObject o;
        o["config"] = config_fingerprint();
        o["now"] = io::Json(io::double_to_hex(events.now()));
        o["next_seq"] = io::Json(io::u64_to_hex(events.next_seq()));
        o["executed"] = io::Json(io::u64_to_hex(events.executed()));
        o["rng"] = io::Json(rng.save_state());
        o["generated"] = io::Json(io::u64_to_hex(generated));
        o["completed_total"] = io::Json(io::u64_to_hex(completed_total));
        {
            io::JsonArray dc;
            for (int i = 0; i < 3; ++i)
                dc.push_back(io::Json(io::u64_to_hex(dropped_cause[i])));
            o["dropped_cause"] = io::Json(std::move(dc));
        }
        o["in_transit"] = io::Json(io::u64_to_hex(in_transit));
        o["next_serial"] = io::Json(io::u64_to_hex(next_serial));
        o["fault_events_applied"] =
            io::Json(io::u64_to_hex(fault_events_applied));
        {
            std::vector<std::uint64_t> ks(killed.begin(), killed.end());
            std::sort(ks.begin(), ks.end());
            io::JsonArray arr;
            for (std::uint64_t k : ks)
                arr.push_back(io::Json(io::u64_to_hex(k)));
            o["killed"] = io::Json(std::move(arr));
        }
        // Every packet a queue, a held FIFO or an event holds.
        PacketIndex packets;
        o["events"] = events_to_json(packets);
        o["interface_link"] = link_to_json(interface_link);
        o["memory_link"] = link_to_json(memory_link);
        {
            io::JsonArray arr;
            for (const LinkServer& l : dedicated_links)
                arr.push_back(link_to_json(l));
            o["dedicated_links"] = io::Json(std::move(arr));
        }
        {
            io::JsonArray arr;
            for (const VertexState& st : vertices) {
                io::JsonObject vo;
                vo["busy"] = io::Json(static_cast<double>(st.busy));
                vo["engines_offline"] =
                    io::Json(static_cast<double>(st.engines_offline));
                vo["slow_factor"] =
                    io::Json(io::double_to_hex(st.slow_factor));
                vo["drop_prob"] = io::Json(io::double_to_hex(st.drop_prob));
                vo["capacity_override"] =
                    io::Json(static_cast<double>(st.capacity_override));
                vo["rr_cursor"] =
                    io::Json(static_cast<double>(st.rr_cursor));
                {
                    io::JsonArray queues;
                    for (const auto& q : st.queues) {
                        io::JsonArray ids;
                        for (const Packet* p : q)
                            ids.push_back(packet_ref(p, packets));
                        queues.push_back(io::Json(std::move(ids)));
                    }
                    vo["queues"] = io::Json(std::move(queues));
                }
                {
                    io::JsonArray isv;
                    for (const VertexState::InService& e : st.in_service) {
                        io::JsonObject eo;
                        eo["serial"] = io::Json(io::u64_to_hex(e.serial));
                        eo["id"] = io::Json(io::u64_to_hex(e.pkt->id));
                        eo["qi"] = io::Json(static_cast<double>(e.qi));
                        eo["slot"] = io::Json(static_cast<double>(e.slot));
                        isv.push_back(io::Json(std::move(eo)));
                    }
                    vo["in_service"] = io::Json(std::move(isv));
                }
                vo["area_busy"] = io::Json(io::double_to_hex(st.area_busy));
                vo["area_occupancy"] =
                    io::Json(io::double_to_hex(st.area_occupancy));
                vo["last_change"] =
                    io::Json(io::double_to_hex(st.last_change));
                vo["served"] = io::Json(io::u64_to_hex(st.served));
                vo["dropped"] =
                    io::Json(io::u64_to_hex(st.vertex_dropped));
                // Credit-window state exists only on credited vertices, so
                // snapshots of window-free graphs keep their old bytes.
                if (st.credits > 0) {
                    vo["credits_free"] =
                        io::Json(static_cast<double>(st.credits_free));
                    io::JsonArray held;
                    for (const VertexState::Held& h : st.held) {
                        io::JsonObject ho;
                        ho["id"] = packet_ref(h.pkt, packets);
                        ho["edge"] = io::Json(static_cast<double>(h.edge));
                        held.push_back(io::Json(std::move(ho)));
                    }
                    vo["held"] = io::Json(std::move(held));
                }
                arr.push_back(io::Json(std::move(vo)));
            }
            o["vertices"] = io::Json(std::move(arr));
        }
        {
            io::JsonArray arr;
            for (const auto& [id, pkt] : packets)
                arr.push_back(packet_to_json(*pkt));
            o["packets"] = io::Json(std::move(arr));
        }
        {
            io::JsonObject r;
            {
                io::JsonArray ls;
                for (double v : latencies.samples())
                    ls.push_back(io::Json(io::double_to_hex(v)));
                r["latency_samples"] = io::Json(std::move(ls));
            }
            r["latency_sealed"] = io::Json(latencies.sealed());
            r["delivered_bytes"] =
                io::Json(io::double_to_hex(delivered.total().bytes()));
            r["delivered_requests"] =
                io::Json(io::u64_to_hex(delivered.requests()));
            r["offered"] =
                io::Json(io::u64_to_hex(offered_in_window.count()));
            r["drops"] = io::Json(io::u64_to_hex(drops_in_window.count()));
            {
                io::JsonObject h;
                io::JsonArray hc;
                for (std::uint64_t c : latency_hist.counts())
                    hc.push_back(io::Json(io::u64_to_hex(c)));
                h["counts"] = io::Json(std::move(hc));
                h["total"] = io::Json(io::u64_to_hex(latency_hist.total()));
                h["sum"] = io::Json(io::double_to_hex(latency_hist.sum()));
                r["latency_hist"] = io::Json(std::move(h));
            }
            o["recorders"] = io::Json(std::move(r));
        }
        return io::Json(std::move(o));
    }

    void
    load_json(const io::Json& snap)
    {
        if (started)
            throw std::logic_error(
                "NicSimulator::load_state: simulator already started "
                "(load into a fresh instance)");
        check_segmentable();
        const std::string want = config_fingerprint().dump(-1);
        const std::string have = snap.at("config").dump(-1);
        if (want != have)
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot configuration "
                "fingerprint mismatch:\n  simulator " + want
                + "\n  snapshot  " + have);
        // The pending calendar; a snapshot without one is refused before
        // anything is restored.
        const io::JsonArray& calendar = snap.at("events").as_array();

        auto hexd = [](const io::Json& v, const char* ctx) {
            return io::double_from_hex(v.as_string(), ctx);
        };
        auto hexu = [](const io::Json& v, const char* ctx) {
            return io::parse_u64(v.as_string(), ctx);
        };

        started = true;

        rng.restore_state(snap.at("rng").as_string());
        generated = hexu(snap.at("generated"), "snapshot generated");
        completed_total =
            hexu(snap.at("completed_total"), "snapshot completed_total");
        {
            const io::JsonArray& dc = snap.at("dropped_cause").as_array();
            if (dc.size() != 3)
                throw std::runtime_error(
                    "NicSimulator::load_state: malformed dropped_cause");
            for (int i = 0; i < 3; ++i)
                dropped_cause[i] = hexu(dc[i], "snapshot dropped_cause");
        }
        in_transit = hexu(snap.at("in_transit"), "snapshot in_transit");
        next_serial = hexu(snap.at("next_serial"), "snapshot next_serial");
        fault_events_applied = hexu(snap.at("fault_events_applied"),
                                    "snapshot fault_events_applied");
        killed.clear();
        for (const io::Json& k : snap.at("killed").as_array())
            killed.insert(hexu(k, "snapshot killed serial"));

        // Packets: acquire slab slots in saved (id) order. Slab slot
        // assignment is invisible to results (nothing keys on pointer
        // values), so the restored run does not need the original slots.
        // Each must be referenced by a queue, a held FIFO or an event.
        struct Restored {
            Packet* pkt;
            bool referenced;
        };
        std::map<std::uint64_t, Restored> packets;
        for (const io::Json& pj : snap.at("packets").as_array()) {
            Packet* p = packet_slab.acquire();
            p->id = hexu(pj.at("id"), "snapshot packet id");
            p->class_index = io::uint_at<std::size_t>(pj, "class");
            if (p->class_index >= traffic.classes().size())
                throw std::runtime_error(
                    "NicSimulator::load_state: packet class out of range");
            p->app_size = Bytes{hexd(pj.at("size"), "snapshot packet size")};
            p->created = hexd(pj.at("created"), "snapshot packet created");
            p->enqueued =
                hexd(pj.at("enqueued"), "snapshot packet enqueued");
            p->traced = false;
            if (!packets.emplace(p->id, Restored{p, false}).second)
                throw std::runtime_error(
                    "NicSimulator::load_state: duplicate packet id");
        }
        auto find_packet = [&packets, &hexu](const io::Json& id,
                                             const char* ctx) -> Packet* {
            const auto it = packets.find(hexu(id, ctx));
            if (it == packets.end())
                throw std::runtime_error(
                    "NicSimulator::load_state: snapshot references an "
                    "unknown packet id");
            it->second.referenced = true;
            return it->second.pkt;
        };

        auto load_link = [&hexd](LinkServer& l, const io::Json& j) {
            l.free_at = hexd(j.at("free_at"), "snapshot link free_at");
            l.factor = hexd(j.at("factor"), "snapshot link factor");
        };
        load_link(interface_link, snap.at("interface_link"));
        load_link(memory_link, snap.at("memory_link"));
        {
            const io::JsonArray& arr = snap.at("dedicated_links").as_array();
            if (arr.size() != dedicated_links.size())
                throw std::runtime_error(
                    "NicSimulator::load_state: dedicated link count "
                    "mismatch");
            for (std::size_t i = 0; i < arr.size(); ++i)
                load_link(dedicated_links[i], arr[i]);
        }

        {
            const io::JsonArray& arr = snap.at("vertices").as_array();
            if (arr.size() != vertices.size())
                throw std::runtime_error(
                    "NicSimulator::load_state: vertex count mismatch");
            for (std::size_t v = 0; v < arr.size(); ++v) {
                VertexState& st = vertices[v];
                const io::Json& vo = arr[v];
                st.busy = io::uint_at<std::uint32_t>(vo, "busy");
                st.engines_offline =
                    io::uint_at<std::uint32_t>(vo, "engines_offline");
                st.slow_factor =
                    hexd(vo.at("slow_factor"), "snapshot slow_factor");
                build_service_laws(st);
                st.drop_prob =
                    hexd(vo.at("drop_prob"), "snapshot drop_prob");
                st.capacity_override =
                    io::uint_at<std::uint32_t>(vo, "capacity_override");
                st.rr_cursor = io::uint_at<std::size_t>(vo, "rr_cursor");
                if (st.rr_cursor != 0 && st.rr_cursor >= st.queues.size())
                    throw std::runtime_error(
                        "NicSimulator::load_state: round-robin cursor out "
                        "of range");
                const io::JsonArray& queues = vo.at("queues").as_array();
                if (queues.size() != st.queues.size())
                    throw std::runtime_error(
                        "NicSimulator::load_state: queue count mismatch");
                st.queued = 0;
                for (std::size_t q = 0; q < queues.size(); ++q) {
                    st.queues[q].clear();
                    for (const io::Json& id : queues[q].as_array())
                        st.queues[q].push_back(
                            find_packet(id, "snapshot queued packet id"));
                    st.queued += st.queues[q].size();
                }
                st.in_service.clear();
                for (const io::Json& eo : vo.at("in_service").as_array()) {
                    VertexState::InService e;
                    e.serial =
                        hexu(eo.at("serial"), "snapshot in-service serial");
                    e.pkt = find_packet(eo.at("id"), "snapshot in-service id");
                    e.qi = io::uint_at<std::size_t>(eo, "qi");
                    if (e.qi >= st.queues.size())
                        throw std::runtime_error(
                            "NicSimulator::load_state: in-service queue "
                            "index out of range");
                    e.slot = io::uint_at<std::size_t>(eo, "slot");
                    st.in_service.push_back(e);
                }
                st.area_busy =
                    hexd(vo.at("area_busy"), "snapshot area_busy");
                st.area_occupancy = hexd(vo.at("area_occupancy"),
                                         "snapshot area_occupancy");
                st.last_change =
                    hexd(vo.at("last_change"), "snapshot last_change");
                st.served = hexu(vo.at("served"), "snapshot served");
                st.vertex_dropped =
                    hexu(vo.at("dropped"), "snapshot vertex dropped");
                if (st.credits == 0) {
                    if (vo.contains("held"))
                        throw std::runtime_error(
                            "NicSimulator::load_state: snapshot has a "
                            "credit window on a vertex without one");
                    continue;
                }
                st.credits_free =
                    io::uint_at<std::uint32_t>(vo, "credits_free");
                if (st.credits_free > st.credits)
                    throw std::runtime_error(
                        "NicSimulator::load_state: more free credits "
                        "than the window holds");
                st.held.clear();
                for (const io::Json& ho : vo.at("held").as_array()) {
                    const auto edge = io::uint_at<EdgeId>(ho, "edge");
                    if (edge >= graph.edge_count()
                        || graph.edge(edge).to != v)
                        throw std::runtime_error(
                            "NicSimulator::load_state: held packet's "
                            "edge does not lead to its vertex");
                    st.held.push_back(
                        {find_packet(ho.at("id"), "snapshot held id"), edge});
                }
            }
        }

        {
            const io::Json& r = snap.at("recorders");
            std::deque<double> samples;
            for (const io::Json& v : r.at("latency_samples").as_array())
                samples.push_back(hexd(v, "snapshot latency sample"));
            latencies.restore(std::move(samples),
                              r.at("latency_sealed").as_bool());
            delivered.restore(
                hexd(r.at("delivered_bytes"), "snapshot delivered bytes"),
                hexu(r.at("delivered_requests"),
                     "snapshot delivered requests"));
            offered_in_window.restore(
                hexu(r.at("offered"), "snapshot offered count"));
            drops_in_window.restore(
                hexu(r.at("drops"), "snapshot drop count"));
            const io::Json& h = r.at("latency_hist");
            std::vector<std::uint64_t> counts;
            for (const io::Json& c : h.at("counts").as_array())
                counts.push_back(hexu(c, "snapshot histogram count"));
            latency_hist.restore(
                std::move(counts),
                hexu(h.at("total"), "snapshot histogram total"),
                hexd(h.at("sum"), "snapshot histogram sum"));
        }

        // Rebuild the calendar: clock first, then one restore_event per
        // pending event with its original (when, seq). Dispatch order
        // depends only on (when, seq), so heap layout differences between
        // the original and restored calendars are unobservable.
        events.restore_clock(hexd(snap.at("now"), "snapshot now"),
                             hexu(snap.at("next_seq"), "snapshot next_seq"),
                             hexu(snap.at("executed"), "snapshot executed"));
        auto event_at = [&](const io::Json& ev) -> EventQueue::Action {
            const std::string& kind = ev.at("kind").as_string();
            auto in_range = [&kind](bool ok, const std::string& field) {
                if (!ok)
                    throw std::runtime_error(
                        "NicSimulator::load_state: " + kind + " event's \""
                        + field + "\" out of range");
            };
            if (kind == "arrival")
                return ArrivalEvent{this, hexd(ev.at("peak"),
                                               "snapshot arrival peak")};
            if (kind == "fault") {
                const auto index = io::uint_at<std::size_t>(ev, "index");
                in_range(index < scheduled_faults.size(), "index");
                return FaultEvent{this, index};
            }
            if (kind == "transfer") {
                const auto edge = io::uint_at<EdgeId>(ev, "edge");
                const auto stage = io::uint_at<unsigned>(ev, "stage");
                in_range(edge < edges.size(), "edge");
                in_range(stage <= 3, "stage");
                return TransferEvent{
                    this, find_packet(ev.at("packet"), "snapshot packet id"),
                    edge, static_cast<int>(stage)};
            }
            if (kind == "service") {
                ServiceEvent e{this,
                               nullptr,
                               io::uint_at<VertexId>(ev, "vertex"),
                               io::uint_at<std::size_t>(ev, "slot"),
                               hexd(ev.at("start"), "snapshot service start"),
                               hexd(ev.at("service"), "snapshot service time"),
                               hexu(ev.at("serial"), "snapshot serial")};
                in_range(e.v < vertices.size(), "vertex");
                // Only a killed completion is saved without its packet.
                if (ev.contains("packet"))
                    e.pkt = find_packet(ev.at("packet"), "snapshot packet id");
                else if (killed.count(e.serial) == 0)
                    throw std::runtime_error(
                        "NicSimulator::load_state: a service event that "
                        "no fault killed has no packet");
                return e;
            }
            if (kind == "credit") {
                const auto w = io::uint_at<VertexId>(ev, "vertex");
                in_range(w < vertices.size(), "vertex");
                return CreditEvent{this, w};
            }
            throw std::runtime_error(
                "NicSimulator::load_state: unknown event kind '" + kind + "'");
        };
        for (const io::Json& ev : calendar)
            events.restore_event(hexd(ev.at("when"), "snapshot event when"),
                                 hexu(ev.at("seq"), "snapshot event seq"),
                                 event_at(ev));
        for (const auto& [id, r] : packets)
            if (!r.referenced)
                throw std::runtime_error(
                    "NicSimulator::load_state: packet " + io::u64_to_hex(id)
                    + " is in no queue, held FIFO or event");
    }
};

NicSimulator::NicSimulator(const HardwareModel& hw,
                           const ExecutionGraph& graph,
                           const TrafficProfile& traffic, SimOptions options)
    : impl_(std::make_unique<Impl>(hw, graph, traffic, options))
{
}

NicSimulator::~NicSimulator() = default;

SimResult
NicSimulator::run()
{
    Impl& s = *impl_;
    if (s.started)
        throw std::logic_error(
            "NicSimulator::run: run()/begin()/load_state() already called");
    s.started = true;
    if (s.faults_active)
        s.schedule_faults();
    s.schedule_next_arrival();

    RunLimits limits;
    limits.max_events = s.options.watchdog.max_events;
    if (s.options.watchdog.wall_clock_seconds > 0.0) {
        const auto deadline = std::chrono::steady_clock::now()
            + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    s.options.watchdog.wall_clock_seconds));
        limits.should_abort = [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        };
    }
    const RunOutcome outcome = s.events.run_until(s.options.duration, limits);
    s.finalized = true;
    return s.finalize_result(outcome);
}

void
NicSimulator::begin()
{
    Impl& s = *impl_;
    if (s.started)
        throw std::logic_error(
            "NicSimulator::begin: run()/begin()/load_state() already "
            "called");
    s.check_segmentable();
    s.started = true;
    if (s.faults_active)
        s.schedule_faults();
    s.schedule_next_arrival();
}

bool
NicSimulator::advance(std::uint64_t max_events)
{
    Impl& s = *impl_;
    if (!s.started)
        throw std::logic_error(
            "NicSimulator::advance: begin()/load_state() not called");
    if (s.finalized)
        throw std::logic_error("NicSimulator::advance: already finalized");
    if (max_events == 0)
        throw std::invalid_argument(
            "NicSimulator::advance: max_events must be > 0");
    // The budget is per-call, so driving the run in segments executes the
    // exact event sequence one unlimited run_until would: the outcome of
    // the final segment is kDrained/kHorizon, exactly as run() sees.
    RunLimits limits;
    limits.max_events = max_events;
    s.last_outcome = s.events.run_until(s.options.duration, limits);
    return s.last_outcome != RunOutcome::kEventBudget;
}

io::Json
NicSimulator::save_state() const
{
    return impl_->save_json();
}

void
NicSimulator::load_state(const io::Json& snapshot)
{
    impl_->load_json(snapshot);
}

SimResult
NicSimulator::finalize()
{
    Impl& s = *impl_;
    if (!s.started)
        throw std::logic_error(
            "NicSimulator::finalize: begin()/load_state() not called");
    if (s.finalized)
        throw std::logic_error("NicSimulator::finalize: already finalized");
    if (s.last_outcome == RunOutcome::kEventBudget)
        throw std::logic_error(
            "NicSimulator::finalize: run not finished (advance() has not "
            "returned true)");
    s.finalized = true;
    return s.finalize_result(s.last_outcome);
}

std::vector<obs::VertexObservation>
observations(const SimResult& result)
{
    std::vector<obs::VertexObservation> out;
    out.reserve(result.vertex_stats.size());
    for (const VertexStats& vs : result.vertex_stats) {
        obs::VertexObservation o;
        o.name = vs.name;
        o.utilization = vs.utilization;
        o.mean_occupancy = vs.mean_occupancy;
        o.served = vs.served;
        o.dropped = vs.dropped;
        out.push_back(std::move(o));
    }
    return out;
}

SimResult
simulate(const core::HardwareModel& hw, const core::ExecutionGraph& graph,
         const core::TrafficProfile& traffic, SimOptions options)
{
    NicSimulator sim(hw, graph, traffic, options);
    return sim.run();
}

SimResult
simulate_trace(const core::HardwareModel& hw,
               const core::ExecutionGraph& graph,
               const traffic::PacketTrace& trace, SimOptions options)
{
    // Service-time tables come from the trace's size histogram; arrivals
    // then replay the recorded order at the recorded mean rate.
    options.poisson_arrivals = trace.poisson;
    const core::TrafficProfile profile = traffic::histogram_profile(trace);
    NicSimulator sim(hw, graph, profile, options);
    auto& impl = *sim.impl_;
    impl.trace = &trace;
    impl.trace_class.reserve(trace.sizes.size());
    for (Bytes s : trace.sizes) {
        std::size_t ci = 0;
        for (std::size_t c = 0; c < profile.classes().size(); ++c) {
            if (profile.classes()[c].size.bytes() == s.bytes()) {
                ci = c;
                break;
            }
        }
        impl.trace_class.push_back(ci);
    }
    return sim.run();
}

} // namespace lognic::sim
