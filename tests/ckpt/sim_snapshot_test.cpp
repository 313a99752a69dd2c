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
 * throw rather than silently produce a snapshot that cannot resume.
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

} // namespace
} // namespace lognic::ckpt
