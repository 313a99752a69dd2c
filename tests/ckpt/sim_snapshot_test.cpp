/**
 * @file
 * Event-boundary DES snapshots: segmented execution (begin / advance /
 * finalize) must be invisible — bit-identical to run() for every segment
 * size — and a mid-run save_state() restored through a JSON dump/parse
 * cycle into a *fresh* simulator must complete to the identical result.
 * Exercised across the behaviors a checkpoint must capture faithfully:
 * overload drops, deterministic service, burst modulation, fault-plan
 * replay (engine fail-stop with requeue, drop bursts), a slowdown in
 * force on a vertex with per-input queues (its service laws and queued
 * count are rebuilt from the snapshot), and a credit window (held
 * packets, free credits, pending credit returns). The
 * unsupported-configuration guards (tracing, watchdog, API misuse) must
 * throw rather than silently produce a snapshot that cannot resume, and
 * an edited snapshot's malformed integer fields are refused by name.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lognic/apps/panic_models.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/devices/panic_proto.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "../test_helpers.hpp"

namespace lognic::ckpt {
namespace {

/// One self-contained simulation setup (owns hw/graph/traffic so the
/// simulator's references stay valid).
struct SimCase {
    std::string name;
    core::HardwareModel hw;
    core::ExecutionGraph graph;
    core::TrafficProfile traffic;
    sim::SimOptions options;
};

SimCase
make_case(const std::string& name, double rate_gbps)
{
    auto hw = test::small_nic();
    auto graph = test::single_stage_graph(hw);
    SimCase s{name, hw, std::move(graph), test::mtu_traffic(rate_gbps), {}};
    s.options.duration = 0.002;
    s.options.seed = 19;
    return s;
}

/// The scenario corpus: every behavior a snapshot must carry.
std::vector<SimCase>
corpus()
{
    std::vector<SimCase> all;
    all.push_back(make_case("plain", 8.0));
    all.push_back(make_case("overload", 60.0)); // > line rate: drops

    SimCase det = make_case("deterministic", 10.0);
    det.options.exponential_service = false;
    det.options.poisson_arrivals = false;
    all.push_back(std::move(det));

    SimCase burst = make_case("burst", 12.0);
    burst.options.burst.enabled = true;
    all.push_back(std::move(burst));

    SimCase faulted = make_case("faulted", 14.0);
    fault::FaultEvent fail;
    fail.kind = fault::FaultKind::kEngineFail;
    fail.at = 0.0005;
    fail.target = "cores";
    fail.count = 6;
    fail.duration = 0.0005; // auto-recovery mid-run
    faulted.options.faults.events.push_back(fail);
    fault::FaultEvent drop;
    drop.kind = fault::FaultKind::kDropBurst;
    drop.at = 0.001;
    drop.target = "cores";
    drop.probability = 0.5;
    drop.duration = 0.0004;
    faulted.options.faults.events.push_back(drop);
    all.push_back(std::move(faulted));

    // ingress -> {pre-a, pre-b} -> cores, where cores keeps one queue per
    // input and is slowed from 0.4 ms to the end of the run: the resumed
    // run must draw at the slowed mean and integrate the queues it
    // restored.
    {
        auto hw = test::small_nic(Bandwidth::from_gbps(1000.0));
        core::ExecutionGraph g("slowed");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto pre_a = g.add_ip_vertex("pre-a", *hw.find_ip("accel"));
        const auto pre_b = g.add_ip_vertex("pre-b", *hw.find_ip("accel"));
        core::VertexParams split;
        split.parallelism = 2;
        split.queue_capacity = 32;
        split.per_input_queues = true;
        const auto cores = g.add_ip_vertex("cores", *hw.find_ip("cores"),
                                           split);
        g.add_edge(in, pre_a, core::EdgeParams{0.5, 0, 0.5, {}});
        g.add_edge(in, pre_b, core::EdgeParams{0.5, 0, 0.5, {}});
        g.add_edge(pre_a, cores, core::EdgeParams{0.5, 0, 0.5, {}});
        g.add_edge(pre_b, cores, core::EdgeParams{0.5, 0, 0.5, {}});
        g.add_edge(cores, out);
        SimCase slowed{"slowed", std::move(hw), std::move(g),
                       test::mtu_traffic(14.0), {}};
        slowed.options.duration = 0.002;
        slowed.options.seed = 29;
        fault::FaultEvent slow;
        slow.kind = fault::FaultKind::kSlowdown;
        slow.at = 0.0004;
        slow.target = "cores";
        slow.factor = 1.5;
        slowed.options.faults.events.push_back(slow);
        all.push_back(std::move(slowed));
    }

    // Overloaded credited Model-1 chain: held FIFOs stay non-empty, and
    // engines of a credited unit fail mid-run with their requests lost,
    // so snapshots carry held packets, free credits, and pending credit
    // returns (including those of dropped requests).
    auto panic = apps::make_panic_chain(
        {devices::panic_unit_ip("u1", Seconds::from_nanos(100.0),
                                Bandwidth::from_gbps(100.0), 2),
         devices::panic_unit_ip("u2", Seconds::from_nanos(60.0),
                                Bandwidth::from_gbps(100.0))},
        3);
    SimCase credited{"credited", std::move(panic.hw), std::move(panic.graph),
                     core::TrafficProfile::fixed(
                         Bytes{512.0}, Bandwidth::from_gbps(60.0)),
                     {}};
    credited.options.duration = 0.0002;
    credited.options.seed = 23;
    fault::FaultEvent unit_fail;
    unit_fail.kind = fault::FaultKind::kEngineFail;
    unit_fail.at = 0.00008;
    unit_fail.target = "u1";
    unit_fail.count = 2;
    unit_fail.duration = 0.00003;
    credited.options.faults.events.push_back(unit_fail);
    credited.options.faults.in_service_policy =
        fault::InServicePolicy::kDrop;
    all.push_back(std::move(credited));
    return all;
}

/// Canonical bit-exact rendering (hex doubles, full metrics snapshot).
std::string
render(const sim::SimResult& r)
{
    return sim_result_to_json(r).dump(-1);
}

TEST(SimSnapshot, SegmentationIsInvisibleForEverySegmentSize)
{
    for (const SimCase& s : corpus()) {
        const std::string expected = render(
            sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run());
        ASSERT_FALSE(expected.empty());
        for (std::uint64_t seg :
             {std::uint64_t{1}, std::uint64_t{97}, std::uint64_t{4096},
              std::uint64_t{1} << 40}) {
            sim::NicSimulator sim(s.hw, s.graph, s.traffic, s.options);
            sim.begin();
            while (!sim.advance(seg)) {
            }
            EXPECT_EQ(render(sim.finalize()), expected)
                << s.name << " seg=" << seg;
        }
    }
}

TEST(SimSnapshot, MidRunSnapshotResumesToTheIdenticalResult)
{
    for (const SimCase& s : corpus()) {
        const std::string expected = render(
            sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run());

        // Drive a prefix, snapshot at several event boundaries, and for
        // each snapshot resume a fresh simulator through a dump -> parse
        // cycle (what the checkpoint file actually stores).
        sim::NicSimulator primary(s.hw, s.graph, s.traffic, s.options);
        primary.begin();
        std::vector<std::string> snapshots;
        bool done = false;
        while (!done) {
            snapshots.push_back(primary.save_state().dump(-1));
            done = primary.advance(700);
        }
        EXPECT_EQ(render(primary.finalize()), expected) << s.name;
        ASSERT_GE(snapshots.size(), 2u) << s.name;
        if (s.name == "credited") {
            // The cut points land on live credit state, not an idle window.
            std::size_t held = 0;
            std::size_t returns = 0;
            for (const std::string& text : snapshots) {
                const io::Json snap = io::Json::parse(text);
                for (const io::Json& v : snap.at("vertices").as_array())
                    if (v.contains("held"))
                        held += v.at("held").as_array().size();
                for (const io::Json& e : snap.at("events").as_array())
                    returns += e.at("kind").as_string() == "credit" ? 1 : 0;
            }
            EXPECT_GT(held, 0u);
            EXPECT_GT(returns, 0u);
            const sim::SimResult r =
                sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run();
            EXPECT_GT(
                r.metrics.counter_or_zero("sim.dropped_by_cause.engine_fail"),
                0u);
        }

        const std::vector<std::size_t> cuts{
            0, snapshots.size() / 2, snapshots.size() - 1};
        if (s.name == "slowed") {
            // Past the first cut, each resume starts with the slowdown in
            // force and requests waiting in the per-input queues.
            for (std::size_t i : {cuts[1], cuts[2]}) {
                const io::Json snap = io::Json::parse(snapshots[i]);
                const io::Json& v = snap.at("vertices").as_array().back();
                EXPECT_NE(v.at("slow_factor").as_string(),
                          io::double_to_hex(1.0))
                    << "snapshot " << i;
                const io::JsonArray& queues = v.at("queues").as_array();
                ASSERT_EQ(queues.size(), 2u);
                EXPECT_GT(queues[0].as_array().size()
                              + queues[1].as_array().size(),
                          0u)
                    << "snapshot " << i;
            }
        }
        for (std::size_t i : cuts) {
            sim::NicSimulator resumed(s.hw, s.graph, s.traffic, s.options);
            resumed.load_state(io::Json::parse(snapshots[i]));
            while (!resumed.advance(1234)) {
            }
            EXPECT_EQ(render(resumed.finalize()), expected)
                << s.name << " snapshot " << i << "/" << snapshots.size();
        }
    }
}

TEST(SimSnapshot, ResumedRunsPublishTheSameSnapshots)
{
    // A snapshot is a function of the simulation state: a run resumed
    // from any cut publishes, step for step, the bytes the primary did.
    for (const SimCase& s : corpus()) {
        sim::NicSimulator primary(s.hw, s.graph, s.traffic, s.options);
        primary.begin();
        std::vector<std::string> snapshots;
        bool done = false;
        while (!done) {
            snapshots.push_back(primary.save_state().dump(-1));
            done = primary.advance(700);
        }
        for (std::size_t i :
             {std::size_t{0}, snapshots.size() / 2, snapshots.size() - 1}) {
            sim::NicSimulator resumed(s.hw, s.graph, s.traffic, s.options);
            resumed.load_state(io::Json::parse(snapshots[i]));
            for (std::size_t j = i; j < snapshots.size(); ++j) {
                if (j > i)
                    resumed.advance(700);
                ASSERT_EQ(resumed.save_state().dump(-1), snapshots[j])
                    << s.name << " resumed at " << i << ", step " << j;
            }
        }
    }
}

/// True once @p snap's run has applied a fault.
bool
fault_applied(const io::Json& snap)
{
    return snap.at("fault_events_applied").as_string() != io::u64_to_hex(0);
}

TEST(SimSnapshot, SnapshotsWhileAKilledCompletionIsPendingResume)
{
    // From the first engine failure (the first fault of both plans) until
    // no neutralized completion is pending, cut at every event boundary.
    // The credited case's failure aborts requests in service, so its
    // snapshots carry stale completions whose requests were dropped; the
    // faulted case's failure finds few enough busy engines to abort none,
    // so its window is the failure's own boundary.
    for (const SimCase& s : corpus()) {
        if (s.name != "faulted" && s.name != "credited")
            continue;
        const std::string expected = render(
            sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run());
        // The events before the 100-event step that applies the failure.
        std::uint64_t before = 0;
        {
            sim::NicSimulator probe(s.hw, s.graph, s.traffic, s.options);
            probe.begin();
            for (;;) {
                ASSERT_FALSE(probe.advance(100)) << s.name;
                if (fault_applied(probe.save_state()))
                    break;
                before += 100;
            }
        }
        sim::NicSimulator primary(s.hw, s.graph, s.traffic, s.options);
        primary.begin();
        if (before > 0) {
            ASSERT_FALSE(primary.advance(before)) << s.name;
        }
        std::vector<std::string> window;
        std::size_t with_killed = 0;
        for (bool stale = true; stale;) {
            ASSERT_FALSE(primary.advance(1)) << s.name;
            const io::Json snap = primary.save_state();
            if (!fault_applied(snap))
                continue;
            stale = !snap.at("killed").as_array().empty();
            with_killed += stale ? 1 : 0;
            window.push_back(snap.dump(-1));
        }
        if (s.name == "credited") {
            EXPECT_GT(with_killed, 0u);
        }
        for (std::size_t i = 0; i < window.size(); ++i) {
            sim::NicSimulator resumed(s.hw, s.graph, s.traffic, s.options);
            resumed.load_state(io::Json::parse(window[i]));
            while (!resumed.advance(1234)) {
            }
            ASSERT_EQ(render(resumed.finalize()), expected)
                << s.name << " boundary " << i << "/" << window.size();
        }
    }
}

TEST(SimSnapshot, SimResultJsonRoundTripsBitExactly)
{
    for (const SimCase& s : corpus()) {
        const sim::SimResult r =
            sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run();
        const io::Json j = sim_result_to_json(r);
        const sim::SimResult back =
            sim_result_from_json(io::Json::parse(j.dump(-1)));
        EXPECT_EQ(sim_result_to_json(back).dump(-1), j.dump(-1)) << s.name;
    }
}

// --- guards -------------------------------------------------------------------

/// No-op sink: its presence alone must disqualify segmented execution.
class NullSink final : public obs::TraceSink {
  public:
    obs::TrackId register_track(const std::string&) override { return 0; }
    void span(obs::TrackId, const std::string&, Seconds, Seconds) override {}
    void counter(obs::TrackId, const std::string&, Seconds, double) override
    {
    }
    void instant(obs::TrackId, const std::string&, Seconds) override {}
    void async_begin(std::uint64_t, const std::string&, Seconds) override {}
    void async_end(std::uint64_t, const std::string&, Seconds) override {}
};

TEST(SimSnapshotGuards, UnsnapshotableConfigurationsAreRefused)
{
    const SimCase s = make_case("guards", 8.0);

    NullSink sink;
    sim::SimOptions traced = s.options;
    traced.trace.sink = &sink;
    sim::NicSimulator with_trace(s.hw, s.graph, s.traffic, traced);
    EXPECT_THROW(with_trace.begin(), std::logic_error);

    sim::SimOptions watched = s.options;
    watched.watchdog.max_events = 1000;
    sim::NicSimulator with_watchdog(s.hw, s.graph, s.traffic, watched);
    EXPECT_THROW(with_watchdog.begin(), std::logic_error);
}

TEST(SimSnapshotGuards, ApiMisuseThrowsInsteadOfCorruptingState)
{
    const SimCase s = make_case("misuse", 8.0);

    sim::NicSimulator fresh(s.hw, s.graph, s.traffic, s.options);
    EXPECT_THROW(fresh.advance(100), std::logic_error);
    EXPECT_THROW(fresh.finalize(), std::logic_error);

    sim::NicSimulator sim(s.hw, s.graph, s.traffic, s.options);
    sim.begin();
    EXPECT_THROW(sim.begin(), std::logic_error);
    EXPECT_THROW(sim.run(), std::logic_error);
    EXPECT_THROW(sim.advance(0), std::invalid_argument);
    const io::Json snap = sim.save_state();
    EXPECT_THROW(sim.load_state(snap), std::logic_error);
    while (!sim.advance(10000)) {
    }
    sim.finalize();
    EXPECT_THROW(sim.finalize(), std::logic_error);
    EXPECT_THROW(sim.advance(1), std::logic_error);
}

TEST(SimSnapshotGuards, SnapshotConfigFingerprintIsEnforced)
{
    const SimCase s = make_case("fingerprint", 8.0);
    sim::NicSimulator source(s.hw, s.graph, s.traffic, s.options);
    source.begin();
    source.advance(500);
    const io::Json snap = source.save_state();

    // Same topology, different seed: a different run — refused.
    sim::SimOptions other = s.options;
    other.seed = 20;
    sim::NicSimulator mismatched(s.hw, s.graph, s.traffic, other);
    EXPECT_THROW(mismatched.load_state(snap), std::runtime_error);

    // Identical configuration: accepted.
    sim::NicSimulator matched(s.hw, s.graph, s.traffic, s.options);
    matched.load_state(snap);
}

/// A snapshot of @p s after a few hundred events.
io::Json
snapshot_of(const SimCase& s)
{
    sim::NicSimulator source(s.hw, s.graph, s.traffic, s.options);
    source.begin();
    source.advance(500);
    return source.save_state();
}

TEST(SimSnapshotGuards, RefusesASnapshotTakenAtAnotherRate)
{
    // Same topology, seed, and options: only the offered rate differs,
    // which no vertex, edge, or class count can tell apart.
    const SimCase s = make_case("rate", 8.0);
    const io::Json snap = snapshot_of(s);
    const core::TrafficProfile slower = test::mtu_traffic(3.0);
    sim::NicSimulator mismatched(s.hw, s.graph, slower, s.options);
    EXPECT_THROW(mismatched.load_state(snap), std::runtime_error);
}

TEST(SimSnapshotGuards, RefusesOneTakenWithAnotherPlanOfTheSameLength)
{
    SimCase s = make_case("plan", 8.0);
    fault::FaultEvent fail;
    fail.kind = fault::FaultKind::kEngineFail;
    fail.at = 0.0005;
    fail.target = "cores";
    fail.count = 2;
    s.options.faults.events.push_back(fail);
    const io::Json snap = snapshot_of(s);

    sim::SimOptions other = s.options;
    other.faults.events[0].count = 3;
    sim::NicSimulator mismatched(s.hw, s.graph, s.traffic, other);
    EXPECT_THROW(mismatched.load_state(snap), std::runtime_error);

    sim::NicSimulator matched(s.hw, s.graph, s.traffic, s.options);
    matched.load_state(snap);
}

/// @p node with the value at @p path replaced by @p value. Path steps
/// are object keys, or decimal indices into arrays.
io::Json
replaced(const io::Json& node, const std::vector<std::string>& path,
         const io::Json& value, std::size_t depth = 0)
{
    if (depth == path.size())
        return value;
    const std::string& step = path[depth];
    if (node.is_array()) {
        io::JsonArray items = node.as_array();
        io::Json& item = items.at(std::stoul(step));
        item = replaced(item, path, value, depth + 1);
        return io::Json(std::move(items));
    }
    io::Json out = node;
    out.set(step, replaced(node.at(step), path, value, depth + 1));
    return out;
}

/// A credited-case snapshot that holds a request in service, a packet
/// held for a credit, and a pending transfer, service, credit-return and
/// fault event; each is named by its index in the snapshot.
struct LiveSnapshot {
    io::Json snap;
    std::string in_service; ///< a vertex with a request in service
    std::string held;       ///< a vertex with a held packet
    std::string transfer, service, credit, fault; ///< events of each kind

    bool complete() const
    {
        return !in_service.empty() && !held.empty() && !transfer.empty()
            && !service.empty() && !credit.empty() && !fault.empty();
    }
};

LiveSnapshot
live_snapshot(const SimCase& s)
{
    sim::NicSimulator source(s.hw, s.graph, s.traffic, s.options);
    source.begin();
    LiveSnapshot live;
    while (!live.complete()) {
        if (source.advance(50))
            throw std::logic_error("no snapshot holds every kind of state");
        live = LiveSnapshot{source.save_state(), "", "", "", "", "", ""};
        const io::JsonArray& vertices = live.snap.at("vertices").as_array();
        for (std::size_t v = 0; v < vertices.size(); ++v) {
            if (!vertices[v].at("in_service").as_array().empty())
                live.in_service = std::to_string(v);
            if (vertices[v].contains("held")
                && !vertices[v].at("held").as_array().empty())
                live.held = std::to_string(v);
        }
        const io::JsonArray& events = live.snap.at("events").as_array();
        for (std::size_t e = 0; e < events.size(); ++e) {
            const std::string& kind = events[e].at("kind").as_string();
            if (kind == "transfer")
                live.transfer = std::to_string(e);
            else if (kind == "service" && events[e].contains("packet"))
                live.service = std::to_string(e);
            else if (kind == "credit")
                live.credit = std::to_string(e);
            else if (kind == "fault")
                live.fault = std::to_string(e);
        }
    }
    return live;
}

TEST(SimSnapshotGuards, MalformedIntegerFieldsAreRefused)
{
    // The credited overload case, advanced until its snapshot holds a
    // request in service, a packet held for a credit, and a transfer and
    // a service completion pending.
    const std::vector<SimCase> all = corpus();
    const SimCase& s = all.back();
    ASSERT_EQ(s.name, "credited");
    const LiveSnapshot live = live_snapshot(s);
    const io::Json& snap = live.snap;
    const std::string& in_service = live.in_service;
    const std::string& held = live.held;
    ASSERT_FALSE(snap.at("packets").as_array().empty());
    {
        sim::NicSimulator intact(s.hw, s.graph, s.traffic, s.options);
        intact.load_state(snap);
    }

    const std::vector<std::vector<std::string>> fields{
        {"packets", "0", "class"},
        {"events", live.transfer, "edge"},
        {"events", live.transfer, "stage"},
        {"events", live.service, "vertex"},
        {"events", live.service, "slot"},
        {"vertices", in_service, "busy"},
        {"vertices", in_service, "engines_offline"},
        {"vertices", in_service, "capacity_override"},
        {"vertices", in_service, "rr_cursor"},
        {"vertices", in_service, "in_service", "0", "qi"},
        {"vertices", in_service, "in_service", "0", "slot"},
        {"vertices", held, "credits_free"},
        {"vertices", held, "held", "0", "edge"},
    };
    const std::vector<io::Json> bad_values{io::Json(-1), io::Json(2.5),
                                           io::Json(1e300), io::Json("x")};
    for (const auto& path : fields) {
        const std::string name = "\"" + path.back() + "\"";
        for (const io::Json& bad : bad_values) {
            sim::NicSimulator target(s.hw, s.graph, s.traffic, s.options);
            try {
                target.load_state(replaced(snap, path, bad));
                ADD_FAILURE() << name << " = " << bad.dump(-1) << " loaded";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find(name),
                          std::string::npos)
                    << e.what();
            }
        }
    }

    // A well-formed in-service queue index past the vertex's queues.
    const std::vector<std::string> qi{"vertices", in_service, "in_service",
                                      "0", "qi"};
    const std::size_t queues = snap.at("vertices")
                                   .as_array()
                                   .at(std::stoul(in_service))
                                   .at("queues")
                                   .as_array()
                                   .size();
    sim::NicSimulator target(s.hw, s.graph, s.traffic, s.options);
    EXPECT_THROW(target.load_state(replaced(
                     snap, qi, io::Json(static_cast<double>(queues)))),
                 std::runtime_error);
}

/// Loading @p snap into a fresh simulator of @p s throws a runtime_error
/// whose message contains @p what.
void
expect_refused(const SimCase& s, const io::Json& snap, const std::string& what)
{
    sim::NicSimulator target(s.hw, s.graph, s.traffic, s.options);
    try {
        target.load_state(snap);
        ADD_FAILURE() << "loaded; expected an error naming " << what;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(SimSnapshotGuards, MalformedEventsAreRefused)
{
    const std::vector<SimCase> all = corpus();
    const SimCase& s = all.back();
    ASSERT_EQ(s.name, "credited");
    const LiveSnapshot live = live_snapshot(s);
    const io::Json& snap = live.snap;
    auto count = [](std::size_t n) { return io::Json(static_cast<double>(n)); };

    expect_refused(s, replaced(snap, {"events", live.credit, "kind"},
                               io::Json("teleport")),
                   "unknown event kind 'teleport'");
    expect_refused(s, replaced(snap, {"events", live.transfer, "edge"},
                               count(s.graph.edge_count())),
                   "\"edge\" out of range");
    expect_refused(s, replaced(snap, {"events", live.transfer, "stage"},
                               count(4)),
                   "\"stage\" out of range");
    expect_refused(s, replaced(snap, {"events", live.service, "vertex"},
                               count(s.graph.vertex_count())),
                   "\"vertex\" out of range");
    expect_refused(s, replaced(snap, {"events", live.credit, "vertex"},
                               count(s.graph.vertex_count())),
                   "\"vertex\" out of range");
    expect_refused(s, replaced(snap, {"events", live.fault, "index"},
                               count(2)), // the plan resolves to 2 faults
                   "\"index\" out of range");

    // Without its transfer event, the packet in flight is held by nothing.
    io::JsonArray events = snap.at("events").as_array();
    const std::string id =
        events.at(std::stoul(live.transfer)).at("packet").as_string();
    events.erase(events.begin() + static_cast<long>(std::stoul(live.transfer)));
    expect_refused(s, replaced(snap, {"events"}, io::Json(std::move(events))),
                   "packet " + id + " is in no queue, held FIFO or event");

    // A service completion goes without its packet only when killed.
    io::JsonObject service =
        snap.at("events").as_array().at(std::stoul(live.service)).as_object();
    service.erase("packet");
    expect_refused(s, replaced(snap, {"events", live.service},
                               io::Json(std::move(service))),
                   "no fault killed has no packet");
}

TEST(SimSnapshotGuards, RefusesTheLayoutThatKeptPendingEventsOnPackets)
{
    // Snapshots once kept each pending event beside the calendar: on its
    // packet ("pending_kind", "pending_when", ...) and in "arrival",
    // "fault_seqs", "stale" and per-vertex "credit_returns" blocks. No
    // reader of that layout is left; such a snapshot is refused by name.
    const SimCase s = make_case("layout", 8.0);
    io::JsonObject old = snapshot_of(s).as_object();
    old.erase("events");
    old["fault_seqs"] = io::Json(io::JsonArray{});
    old["stale"] = io::Json(io::JsonArray{});
    io::JsonObject arrival;
    arrival["pending"] = io::Json(true);
    arrival["peak"] = io::Json(io::double_to_hex(1e6));
    arrival["when"] = io::Json(io::double_to_hex(0.001));
    arrival["seq"] = io::Json(io::u64_to_hex(1));
    old["arrival"] = io::Json(std::move(arrival));
    io::JsonArray packets;
    for (const io::Json& p : old.at("packets").as_array()) {
        io::Json with_pending = p;
        with_pending.set("pending_kind", io::Json(0));
        with_pending.set("pending_seq", io::Json(io::u64_to_hex(0)));
        packets.push_back(std::move(with_pending));
    }
    old["packets"] = io::Json(std::move(packets));
    expect_refused(s, io::Json(std::move(old)), "missing key 'events'");
}

} // namespace
} // namespace lognic::ckpt
