/**
 * @file
 * Event-boundary DES snapshots: segmented execution (begin / advance /
 * finalize) must be invisible — bit-identical to run() for every segment
 * size — and a mid-run save_state() restored through a JSON dump/parse
 * cycle into a *fresh* simulator must complete to the identical result.
 * Exercised across the behaviors a checkpoint must capture faithfully:
 * overload drops, deterministic service, burst modulation, fault-plan
 * replay (engine fail-stop with requeue, drop bursts), and a credit
 * window (held packets, free credits, pending credit returns). The
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
                for (const io::Json& v : snap.at("vertices").as_array()) {
                    if (!v.contains("held"))
                        continue;
                    held += v.at("held").as_array().size();
                    returns += v.at("credit_returns").as_array().size();
                }
            }
            EXPECT_GT(held, 0u);
            EXPECT_GT(returns, 0u);
            const sim::SimResult r =
                sim::NicSimulator(s.hw, s.graph, s.traffic, s.options).run();
            EXPECT_GT(
                r.metrics.counter_or_zero("sim.dropped_by_cause.engine_fail"),
                0u);
        }

        for (std::size_t i : {std::size_t{0}, snapshots.size() / 2,
                              snapshots.size() - 1}) {
            sim::NicSimulator resumed(s.hw, s.graph, s.traffic, s.options);
            resumed.load_state(io::Json::parse(snapshots[i]));
            while (!resumed.advance(1234)) {
            }
            EXPECT_EQ(render(resumed.finalize()), expected)
                << s.name << " snapshot " << i << "/" << snapshots.size();
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

TEST(SimSnapshotGuards, MalformedIntegerFieldsAreRefused)
{
    // The credited overload case, advanced until its snapshot holds a
    // request in service and a packet held for a credit.
    const std::vector<SimCase> all = corpus();
    const SimCase& s = all.back();
    ASSERT_EQ(s.name, "credited");
    sim::NicSimulator source(s.hw, s.graph, s.traffic, s.options);
    source.begin();
    io::Json snap;
    std::string in_service;
    std::string held;
    while (in_service.empty() || held.empty()) {
        ASSERT_FALSE(source.advance(50))
            << "no snapshot with both a request in service and a held "
               "packet";
        snap = source.save_state();
        in_service.clear();
        held.clear();
        const io::JsonArray& vertices = snap.at("vertices").as_array();
        for (std::size_t v = 0; v < vertices.size(); ++v) {
            if (!vertices[v].at("in_service").as_array().empty())
                in_service = std::to_string(v);
            if (vertices[v].contains("held")
                && !vertices[v].at("held").as_array().empty())
                held = std::to_string(v);
        }
    }
    ASSERT_FALSE(snap.at("packets").as_array().empty());
    {
        sim::NicSimulator intact(s.hw, s.graph, s.traffic, s.options);
        intact.load_state(snap);
    }

    const std::vector<std::vector<std::string>> fields{
        {"packets", "0", "class"},
        {"packets", "0", "pending_kind"},
        {"packets", "0", "pending_stage"},
        {"packets", "0", "pending_edge"},
        {"packets", "0", "pending_vertex"},
        {"packets", "0", "pending_slot"},
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

} // namespace
} // namespace lognic::ckpt
