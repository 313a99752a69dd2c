/**
 * @file
 * Schema validation of the Chrome trace-event export, on real simulator
 * output for a paper scenario — the contract that ui.perfetto.dev and
 * chrome://tracing can open what `lognic simulate --trace` writes.
 */
#include "lognic/obs/trace.hpp"

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "lognic/apps/inline_accel.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::obs {
namespace {

using test::mtu_traffic;
using test::small_nic;
using test::two_stage_graph;

sim::SimOptions
traced(ChromeTraceWriter& writer, std::uint64_t sample_every = 1)
{
    sim::SimOptions o;
    o.duration = 0.002;
    o.seed = 7;
    o.trace.sink = &writer;
    o.trace.sample_every = sample_every;
    return o;
}

TEST(TraceOptions, SamplingPredicate)
{
    ChromeTraceWriter w;
    TraceOptions off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.sampled(0));

    TraceOptions every{&w, 1, true};
    EXPECT_TRUE(every.enabled());
    EXPECT_TRUE(every.sampled(0));
    EXPECT_TRUE(every.sampled(17));

    TraceOptions nth{&w, 4, true};
    EXPECT_TRUE(nth.sampled(0));
    EXPECT_FALSE(nth.sampled(1));
    EXPECT_TRUE(nth.sampled(8));

    TraceOptions counters_only{&w, 0, true};
    EXPECT_TRUE(counters_only.enabled());
    EXPECT_FALSE(counters_only.sampled(0));
}

TEST(ChromeTraceWriter, EventPhasesMatchFormatSpec)
{
    ChromeTraceWriter w;
    const TrackId t = w.register_track("vertex-a");
    w.span(t, "serve", Seconds::from_micros(10.0),
           Seconds::from_micros(2.5));
    w.counter(t, "queue_depth", Seconds::from_micros(11.0), 3.0);
    w.instant(t, "drop", Seconds::from_micros(12.0));
    w.async_begin(42, "pkt", Seconds::from_micros(10.0));
    w.async_end(42, "pkt", Seconds::from_micros(13.0));
    EXPECT_EQ(w.event_count(), 5u);
    EXPECT_EQ(w.track_count(), 1u);

    const io::Json doc = w.json();
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
    const auto& events = doc.at("traceEvents").as_array();
    // 5 events + process_name + 1 thread_name.
    ASSERT_EQ(events.size(), 7u);

    // Every event carries the mandatory fields.
    for (const auto& e : events) {
        ASSERT_TRUE(e.is_object());
        EXPECT_TRUE(e.contains("ph"));
        EXPECT_TRUE(e.contains("pid"));
        EXPECT_TRUE(e.contains("name"));
    }

    // The complete span: ts/dur in microseconds.
    const auto& span = events[2];
    EXPECT_EQ(span.at("ph").as_string(), "X");
    EXPECT_EQ(span.at("name").as_string(), "serve");
    EXPECT_DOUBLE_EQ(span.at("ts").as_number(), 10.0);
    EXPECT_DOUBLE_EQ(span.at("dur").as_number(), 2.5);

    // The counter: name prefixed with the track, value under args.
    const auto& counter = events[3];
    EXPECT_EQ(counter.at("ph").as_string(), "C");
    EXPECT_EQ(counter.at("name").as_string(), "vertex-a.queue_depth");
    EXPECT_DOUBLE_EQ(counter.at("args").at("queue_depth").as_number(),
                     3.0);

    // The instant is thread-scoped.
    EXPECT_EQ(events[4].at("ph").as_string(), "i");
    EXPECT_EQ(events[4].at("s").as_string(), "t");

    // Async pair correlates on (cat, id); ids are hex strings (JSON
    // numbers are doubles and cannot hold a full uint64).
    EXPECT_EQ(events[5].at("ph").as_string(), "b");
    EXPECT_EQ(events[6].at("ph").as_string(), "e");
    EXPECT_EQ(events[5].at("cat").as_string(), "pkt");
    EXPECT_EQ(events[5].at("id").as_string(), "0x2a");
    EXPECT_EQ(events[5].at("id").as_string(),
              events[6].at("id").as_string());
}

TEST(ChromeTraceWriter, MetadataNamesEveryTrack)
{
    ChromeTraceWriter w;
    w.register_track("alpha");
    w.register_track("alpha/e0");
    const io::Json doc = w.json();
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("name").as_string(), "process_name");
    EXPECT_EQ(events[0].at("args").at("name").as_string(), "lognic-sim");
    EXPECT_EQ(events[1].at("name").as_string(), "thread_name");
    EXPECT_EQ(events[1].at("args").at("name").as_string(), "alpha");
    EXPECT_EQ(events[2].at("args").at("name").as_string(), "alpha/e0");
}

TEST(ChromeTraceWriter, RoundTripsThroughJsonParser)
{
    ChromeTraceWriter w;
    const TrackId t = w.register_track("v");
    w.span(t, "serve", Seconds::from_micros(1.0),
           Seconds::from_micros(1.0));
    std::ostringstream out;
    w.write(out);
    const io::Json parsed = io::Json::parse(out.str());
    EXPECT_EQ(parsed.at("traceEvents").as_array().size(), 3u);
}

/// End-to-end schema check on a paper scenario (the fig. 7/8 inline-
/// accelerator offload): per-vertex spans and queue-depth counters must
/// be present and well-formed.
TEST(SimulatorTrace, PaperScenarioProducesSpansAndCounters)
{
    const auto sc = apps::make_inline_accel(
        devices::LiquidIoKernel::kMd5, 12);
    ChromeTraceWriter w;
    const auto res = sim::simulate(
        sc.hw, sc.graph, mtu_traffic(10.0), traced(w));
    EXPECT_GT(res.completed, 0u);
    EXPECT_GT(w.event_count(), 0u);

    const io::Json doc = w.json();
    const auto& events = doc.at("traceEvents").as_array();
    std::set<std::string> track_names;
    std::size_t spans = 0, counters = 0, begins = 0, ends = 0;
    bool saw_queue_depth = false;
    for (const auto& e : events) {
        const std::string ph = e.at("ph").as_string();
        if (ph == "M" && e.at("name").as_string() == "thread_name")
            track_names.insert(e.at("args").at("name").as_string());
        if (ph == "X") {
            ++spans;
            // Spans carry non-negative microsecond timestamps/durations.
            EXPECT_GE(e.at("ts").as_number(), 0.0);
            EXPECT_GE(e.at("dur").as_number(), 0.0);
            const std::string name = e.at("name").as_string();
            EXPECT_TRUE(name == "serve" || name == "wait") << name;
        }
        if (ph == "C") {
            ++counters;
            const std::string name = e.at("name").as_string();
            if (name.find(".queue_depth") != std::string::npos)
                saw_queue_depth = true;
        }
        if (ph == "b")
            ++begins;
        if (ph == "e")
            ++ends;
    }
    EXPECT_GT(spans, 0u);
    EXPECT_GT(counters, 0u);
    EXPECT_TRUE(saw_queue_depth);
    // Every vertex of the graph contributes a named queue track plus
    // engine lanes ("<vertex>/e<k>").
    EXPECT_GE(track_names.size(), 2u);
    bool saw_engine_lane = false;
    for (const auto& n : track_names)
        saw_engine_lane |= n.find("/e") != std::string::npos;
    EXPECT_TRUE(saw_engine_lane);
    // Packet lifecycles: ends can lag begins (packets in flight at the
    // horizon never complete), never the reverse.
    EXPECT_GT(begins, 0u);
    EXPECT_LE(ends, begins);
}

TEST(SimulatorTrace, SamplingBoundsLifecycleSpans)
{
    const auto hw = small_nic();
    const auto g = two_stage_graph(hw);
    ChromeTraceWriter all;
    ChromeTraceWriter sampled;
    sim::simulate(hw, g, mtu_traffic(10.0), traced(all, 1));
    const auto res =
        sim::simulate(hw, g, mtu_traffic(10.0), traced(sampled, 8));

    auto count_begins = [](const ChromeTraceWriter& w) {
        const io::Json doc = w.json();
        std::size_t n = 0;
        for (const auto& e : doc.at("traceEvents").as_array())
            n += e.at("ph").as_string() == "b" ? 1 : 0;
        return n;
    };
    const std::size_t all_begins = count_begins(all);
    const std::size_t sampled_begins = count_begins(sampled);
    EXPECT_EQ(all_begins, res.generated);
    // Every-8th sampling: exactly ceil(generated / 8) lifecycles.
    EXPECT_EQ(sampled_begins, (res.generated + 7) / 8);
}

TEST(SimulatorTrace, CountersOnlyModeSuppressesLifecycles)
{
    const auto hw = small_nic();
    const auto g = two_stage_graph(hw);
    ChromeTraceWriter w;
    sim::simulate(hw, g, mtu_traffic(10.0), traced(w, 0));
    const io::Json doc = w.json();
    for (const auto& e : doc.at("traceEvents").as_array()) {
        const std::string ph = e.at("ph").as_string();
        EXPECT_TRUE(ph == "M" || ph == "C" || ph == "i") << ph;
    }
}

/// The overhead contract's correctness half: attaching a sink must not
/// change the simulation (no RNG draws, no event reordering) — traced and
/// untraced runs are bit-identical.
TEST(SimulatorTrace, TracingDoesNotPerturbSimulation)
{
    const auto hw = small_nic();
    const auto g = two_stage_graph(hw);
    sim::SimOptions plain;
    plain.duration = 0.005;
    plain.seed = 21;
    const auto a = sim::simulate(hw, g, mtu_traffic(12.0), plain);

    ChromeTraceWriter w;
    sim::SimOptions with_trace = plain;
    with_trace.trace.sink = &w;
    const auto b = sim::simulate(hw, g, mtu_traffic(12.0), with_trace);

    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_DOUBLE_EQ(a.delivered.gbps(), b.delivered.gbps());
    EXPECT_DOUBLE_EQ(a.mean_latency.seconds(), b.mean_latency.seconds());
    EXPECT_DOUBLE_EQ(a.p99_latency.seconds(), b.p99_latency.seconds());
    ASSERT_EQ(a.vertex_stats.size(), b.vertex_stats.size());
    for (std::size_t i = 0; i < a.vertex_stats.size(); ++i) {
        EXPECT_EQ(a.vertex_stats[i].served, b.vertex_stats[i].served);
        EXPECT_DOUBLE_EQ(a.vertex_stats[i].utilization,
                         b.vertex_stats[i].utilization);
    }
    // The structured snapshots agree too (identical numerics).
    EXPECT_EQ(a.metrics.to_json().dump(), b.metrics.to_json().dump());
}

TEST(SimulatorResult, MetricsSnapshotMirrorsScalarFields)
{
    const auto hw = small_nic();
    const auto g = two_stage_graph(hw);
    sim::SimOptions o;
    o.duration = 0.005;
    o.seed = 3;
    const auto res = sim::simulate(hw, g, mtu_traffic(10.0), o);
    ASSERT_FALSE(res.metrics.empty());
    EXPECT_EQ(res.metrics.counter_or_zero("sim.generated"),
              res.generated);
    EXPECT_EQ(res.metrics.counter_or_zero("sim.completed"),
              res.completed);
    EXPECT_EQ(res.metrics.counter_or_zero("sim.dropped"), res.dropped);
    EXPECT_DOUBLE_EQ(res.metrics.gauge_or("sim.delivered_gbps"),
                     res.delivered.gbps());
    EXPECT_DOUBLE_EQ(res.metrics.gauge_or("sim.drop_rate"),
                     res.drop_rate);
    // Per-vertex series exist for every measured vertex.
    for (const auto& vs : res.vertex_stats) {
        EXPECT_EQ(res.metrics.counter_or_zero("vertex." + vs.name
                                              + ".served"),
                  vs.served);
        EXPECT_DOUBLE_EQ(res.metrics.gauge_or("vertex." + vs.name
                                              + ".utilization"),
                         vs.utilization);
    }
    // The latency histogram integrates to the completed count.
    const auto& h = res.metrics.histograms.at("sim.latency_us");
    EXPECT_EQ(h.total, res.completed);
}

} // namespace
} // namespace lognic::obs
