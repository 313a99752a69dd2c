#include "lognic/core/reporting.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/apps/nvmeof.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/core/extensions.hpp"
#include "lognic/devices/liquidio.hpp"
#include "lognic/ssd/calibration.hpp"
#include "lognic/traffic/io_workload.hpp"

namespace lognic::core {
namespace {

TEST(Reporting, ThroughputShowsBottleneckAndTerms)
{
    const Model model(test::small_nic());
    const auto g = test::two_stage_graph(model.hardware());
    const auto traffic = test::mtu_traffic(10.0);
    const auto text =
        render_throughput(model.throughput(g, traffic), traffic);
    EXPECT_NE(text.find("[bottleneck]"), std::string::npos);
    EXPECT_NE(text.find("cores"), std::string::npos);
    EXPECT_NE(text.find("accel"), std::string::npos);
    EXPECT_NE(text.find("Gbps"), std::string::npos);
}

TEST(Reporting, LatencyShowsHopBreakdown)
{
    const Model model(test::small_nic());
    const auto g = test::two_stage_graph(model.hardware());
    const auto traffic = test::mtu_traffic(10.0);
    const auto text = render_latency(model.latency(g, traffic), traffic);
    EXPECT_NE(text.find("path (weight"), std::string::npos);
    EXPECT_NE(text.find("Q="), std::string::npos);
    EXPECT_NE(text.find("xfer="), std::string::npos);
    EXPECT_NE(text.find("goodput"), std::string::npos);
}

TEST(Reporting, FullReportConcatenatesBothSides)
{
    const Model model(test::small_nic());
    const auto g = test::single_stage_graph(model.hardware());
    const auto traffic = test::mtu_traffic(5.0);
    const auto text = render_report(model.estimate(g, traffic), traffic);
    EXPECT_NE(text.find("Throughput:"), std::string::npos);
    EXPECT_NE(text.find("Latency:"), std::string::npos);
}

TEST(Reporting, MixedProfilesLabelClasses)
{
    const Model model(test::small_nic());
    const auto g = test::single_stage_graph(model.hardware());
    const auto mixed = TrafficProfile::mixed(
        {{Bytes{64.0}, 0.5}, {Bytes{1500.0}, 0.5}},
        Bandwidth::from_gbps(4.0));
    const auto text =
        render_throughput(model.throughput(g, mixed), mixed);
    EXPECT_NE(text.find("64B (50% of bytes)"), std::string::npos);
    EXPECT_NE(text.find("1500B (50% of bytes)"), std::string::npos);
}

TEST(Reporting, ClassLabelsPrintSizesPastTheLongLongRange)
{
    // 2^63 bytes and more have no long long; a label prints the size's
    // whole decimal value.
    const auto mixed = TrafficProfile::mixed(
        {{Bytes{0x1p63}, 0.5}, {Bytes{1e19}, 0.5}},
        Bandwidth::from_gbps(4.0));
    ThroughputReport report;
    report.per_class.resize(2);
    const auto text = render_throughput(report, mixed);
    EXPECT_NE(text.find("class 9223372036854775808B (50% of bytes)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("class 10000000000000000000B (50% of bytes)"),
              std::string::npos)
        << text;
}

TEST(Reporting, DotExportContainsStructure)
{
    const auto hw = test::small_nic();
    ExecutionGraph g = test::two_stage_graph(hw);
    g.edge(1).params.dedicated_bw = Bandwidth::from_gbps(12.0);
    insert_rate_limiter(g, *g.find_vertex("accel"),
                        Bandwidth::from_gbps(5.0), 4);
    const auto dot = to_dot(g, hw);
    EXPECT_EQ(dot.rfind("digraph", 0), 0u); // starts with digraph
    EXPECT_NE(dot.find("cores"), std::string::npos);
    EXPECT_NE(dot.find("shaper"), std::string::npos);
    EXPECT_NE(dot.find("hexagon"), std::string::npos); // rate limiter shape
    EXPECT_NE(dot.find("ellipse"), std::string::npos); // ingress/egress
    EXPECT_NE(dot.find("bw=12.0G"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
}

TEST(Reporting, DotShowsEffectiveParallelismAndPartition)
{
    const auto hw = test::small_nic();
    VertexParams p;
    p.parallelism = 3;
    p.partition = 0.5;
    const auto g = test::single_stage_graph(hw, p);
    const auto dot = to_dot(g, hw);
    EXPECT_NE(dot.find("D=3"), std::string::npos);
    EXPECT_NE(dot.find("g=0.50"), std::string::npos);
}

/**
 * The renderer as it was written with std::ostringstream and snprintf,
 * kept as the reference for the one-buffer renderer. Its buffer is 400
 * bytes, wide enough for any double at these precisions, so what it
 * holds is printf's conversion and not a truncation of it.
 */
namespace printf_reference {

std::string
format(const char* fmt, double v)
{
    char buf[400];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

std::string
class_label(const TrafficProfile& traffic, std::size_t i)
{
    const auto& c = traffic.classes()[i];
    std::ostringstream os;
    os << static_cast<long long>(c.size.bytes()) << "B";
    if (traffic.classes().size() > 1)
        os << " (" << format("%.0f", 100.0 * c.weight) << "% of bytes)";
    return os.str();
}

std::string
render_throughput(const ThroughputReport& report,
                  const TrafficProfile& traffic)
{
    std::ostringstream os;
    os << "Throughput: capacity "
       << format("%.3f", report.capacity.gbps()) << " Gbps, achieved "
       << format("%.3f", report.achieved.gbps()) << " Gbps at "
       << format("%.3f", traffic.ingress_bandwidth().gbps())
       << " Gbps offered\n";
    for (std::size_t i = 0; i < report.per_class.size(); ++i) {
        const auto& est = report.per_class[i];
        os << "  class " << class_label(traffic, i) << ": capacity "
           << format("%.3f", est.capacity.gbps()) << " Gbps\n";
        for (const auto& term : est.terms) {
            const bool binding = term.name == est.bottleneck.name
                && term.kind == est.bottleneck.kind;
            os << "    " << (binding ? "-> " : "   ")
               << format("%10.3f", term.limit.gbps()) << " Gbps  "
               << to_string(term.kind) << "  " << term.name
               << (binding ? "  [bottleneck]" : "") << "\n";
        }
    }
    return os.str();
}

std::string
render_latency(const LatencyReport& report, const TrafficProfile& traffic)
{
    std::ostringstream os;
    os << "Latency: mean " << format("%.3f", report.mean.micros())
       << " us";
    if (report.max_drop_probability > 0.0)
        os << ", worst drop probability "
           << format("%.4f", report.max_drop_probability);
    os << "\n";
    for (std::size_t i = 0; i < report.per_class.size(); ++i) {
        const auto& est = report.per_class[i];
        os << "  class " << class_label(traffic, i) << ": "
           << format("%.3f", est.mean.micros()) << " us, goodput "
           << format("%.3f", est.goodput.gbps()) << " Gbps\n";
        for (const auto& path : est.paths) {
            os << "    path (weight " << format("%.2f", path.weight)
               << "): " << format("%.3f", path.total.micros()) << " us\n";
            for (const auto& hop : path.hops) {
                os << "      " << hop.vertex << ": Q="
                   << format("%.3f", hop.queueing.micros()) << " C="
                   << format("%.3f", hop.compute.micros()) << " O="
                   << format("%.3f", hop.overhead.micros()) << " xfer="
                   << format("%.3f", hop.transfer.micros()) << " us\n";
            }
        }
    }
    return os.str();
}

std::string
render_report(const Report& report, const TrafficProfile& traffic)
{
    return printf_reference::render_throughput(report.throughput, traffic)
        + printf_reference::render_latency(report.latency, traffic);
}

std::string
to_dot(const ExecutionGraph& graph, const HardwareModel& hw)
{
    std::ostringstream os;
    os << "digraph \"" << graph.name() << "\" {\n"
       << "  rankdir=LR;\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";

    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
        const Vertex& vx = graph.vertex(v);
        os << "  v" << v << " [label=\"" << vx.name;
        switch (vx.kind) {
          case VertexKind::kIngress:
          case VertexKind::kEgress:
            os << "\\n(" << to_string(vx.kind) << " @ "
               << format("%.0f", hw.line_rate().gbps()) << "G)\"";
            os << ", shape=ellipse";
            break;
          case VertexKind::kRateLimiter:
            os << "\\n(shaper @ " << format("%.1f", vx.rate_limit.gbps())
               << "G, N=" << vx.params.queue_capacity << ")\"";
            os << ", shape=hexagon";
            break;
          case VertexKind::kIp: {
            const IpSpec& spec = hw.ip(vx.ip);
            const std::uint32_t d = vx.params.parallelism > 0
                ? vx.params.parallelism
                : spec.max_engines;
            const std::uint32_t n = vx.params.queue_capacity > 0
                ? vx.params.queue_capacity
                : spec.default_queue_capacity;
            os << "\\n(" << to_string(spec.kind) << " " << spec.name
               << ", D=" << d << ", N=" << n;
            if (vx.params.partition < 1.0)
                os << ", g=" << format("%.2f", vx.params.partition);
            os << ")\"";
            break;
          }
        }
        os << "];\n";
    }

    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& ed = graph.edge(e);
        const EdgeParams& p = ed.params;
        os << "  v" << ed.from << " -> v" << ed.to << " [label=\"d="
           << format("%.2f", p.delta);
        if (p.alpha > 0.0)
            os << " a=" << format("%.2f", p.alpha);
        if (p.beta > 0.0)
            os << " b=" << format("%.2f", p.beta);
        if (p.dedicated_bw)
            os << " bw=" << format("%.1f", p.dedicated_bw->gbps()) << "G";
        os << "\"];\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace printf_reference

/// Every render_* of @p report and to_dot of @p graph against the
/// reference; @p what names the input in a failure.
void
expect_printf_bytes(const Report& report, const TrafficProfile& traffic,
                    const ExecutionGraph& graph, const HardwareModel& hw,
                    const std::string& what)
{
    EXPECT_EQ(render_report(report, traffic),
              printf_reference::render_report(report, traffic))
        << what;
    EXPECT_EQ(render_throughput(report.throughput, traffic),
              printf_reference::render_throughput(report.throughput, traffic))
        << what;
    EXPECT_EQ(render_latency(report.latency, traffic),
              printf_reference::render_latency(report.latency, traffic))
        << what;
    EXPECT_EQ(to_dot(graph, hw), printf_reference::to_dot(graph, hw))
        << what;
}

/// The model's estimate of (@p hw, @p graph) at @p load times its
/// capacity for @p packet, against the reference.
void
expect_printf_bytes_at_loads(const HardwareModel& hw,
                             const ExecutionGraph& graph, Bytes packet,
                             const std::string& what)
{
    const Model model(hw);
    const Bandwidth capacity =
        model
            .throughput(graph, TrafficProfile::fixed(
                                   packet, Bandwidth::from_gbps(1.0)))
            .capacity;
    for (const double load : {0.1, 1.0, 1.5}) {
        const auto traffic = TrafficProfile::fixed(
            packet, Bandwidth{capacity.bits_per_sec() * load});
        expect_printf_bytes(model.estimate(graph, traffic), traffic, graph,
                            hw, what + " at " + std::to_string(load));
    }
}

/// A hand-built report whose every number is @p v, apart from two terms
/// that print exactly 10 and 11 characters wide, and a graph whose every
/// printed parameter is @p v where the graph can hold it.
void
expect_printf_bytes_of_value(double v, const TrafficProfile& classes)
{
    TrafficProfile traffic = classes;
    traffic.set_ingress_bandwidth(Bandwidth::from_gbps(v));
    const ThroughputTerm at_v{TermKind::kIpCompute, "cores",
                              Bandwidth::from_gbps(v)};
    const ThroughputTerm ten_wide{TermKind::kEdge, "edge",
                                  Bandwidth::from_gbps(123456.789)};
    const ThroughputTerm wider{TermKind::kLineRate, "line",
                               Bandwidth::from_gbps(1234567.891)};
    Report report;
    report.throughput.capacity = Bandwidth::from_gbps(v);
    report.throughput.achieved = Bandwidth::from_gbps(v);
    report.latency.mean = Seconds::from_micros(v);
    report.latency.max_drop_probability = v;
    for (std::size_t i = 0; i < traffic.classes().size(); ++i) {
        ThroughputEstimate t;
        t.capacity = Bandwidth::from_gbps(v);
        t.terms = {at_v, ten_wide, wider};
        t.bottleneck = t.terms[i % t.terms.size()];
        report.throughput.per_class.push_back(t);

        HopLatency hop;
        hop.vertex = "cores";
        hop.queueing = Seconds::from_micros(v);
        hop.compute = Seconds::from_micros(v);
        hop.overhead = Seconds::from_micros(v);
        hop.transfer = Seconds::from_micros(v);
        PathLatency path;
        path.hops = {hop, hop};
        path.weight = v;
        path.total = Seconds::from_micros(v);
        LatencyEstimate l;
        l.mean = Seconds::from_micros(v);
        l.goodput = Bandwidth::from_gbps(v);
        l.paths = {path};
        report.latency.per_class.push_back(l);
    }

    // A line rate must be positive; NaN and +inf pass that check.
    const HardwareModel hw = test::small_nic(
        v <= 0.0 ? Bandwidth::from_gbps(25.0) : Bandwidth::from_gbps(v));
    ExecutionGraph g = test::two_stage_graph(hw);
    g.edge(0).params = EdgeParams{v, v, v, Bandwidth::from_gbps(v)};
    const VertexId accel = *g.find_vertex("accel");
    insert_rate_limiter(g, accel, Bandwidth::from_gbps(5.0), 4);
    g.vertex(*g.find_vertex("accel-shaper")).rate_limit =
        Bandwidth::from_gbps(v);
    g.vertex(accel).params.partition = v;

    std::ostringstream what;
    what << "value " << v << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(v) << ")";
    expect_printf_bytes(report, traffic, g, hw, what.str());
}

TEST(Reporting, MatchesThePrintfRendering)
{
    // Generated scenarios, as the estimate_mix pool draws them.
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        const auto gen = check::generate_scenario(seed);
        const auto& sc = gen.scenario;
        const Model model(sc.hw);
        expect_printf_bytes(model.estimate(sc.graph, sc.traffic), sc.traffic,
                            sc.graph, sc.hw,
                            "generated seed " + std::to_string(seed));
    }

    // The app builders at 0.1x, 1x and 1.5x of their capacity.
    for (const auto kernel : devices::liquidio_kernels())
        for (std::uint32_t cores = 1; cores <= 16; ++cores) {
            const auto s = apps::make_inline_accel(kernel, cores);
            expect_printf_bytes_at_loads(
                s.hw, s.graph, Bytes{1500.0},
                std::string("inline ") + devices::to_string(kernel) + " x"
                    + std::to_string(cores));
        }
    int placement = 0;
    for (const auto& p : apps::all_placements()) {
        const auto s = apps::make_nf_chain(p);
        expect_printf_bytes_at_loads(
            s.hw, s.graph, Bytes{1500.0},
            "nf placement " + std::to_string(placement++));
    }
    for (const auto w : apps::e3_workloads()) {
        const auto pipe =
            apps::make_e3_pipeline(w, apps::equal_partition_alloc(w));
        expect_printf_bytes_at_loads(pipe.hw, pipe.graph,
                                     apps::e3_request_size(),
                                     std::string("e3 pipeline ")
                                         + apps::to_string(w));
        const auto rtc = apps::make_e3_run_to_completion(w);
        expect_printf_bytes_at_loads(rtc.hw, rtc.graph,
                                     apps::e3_request_size(),
                                     std::string("e3 run-to-completion ")
                                         + apps::to_string(w));
    }
    const ssd::SsdGroundTruth drive;
    for (const auto& w : {traffic::random_read_4k(),
                          traffic::random_read_128k(),
                          traffic::sequential_write_4k()}) {
        const auto calib =
            ssd::calibrate(drive.characterize(w, 14), w.block_size);
        const auto s = apps::make_nvmeof_target(calib, w);
        expect_printf_bytes_at_loads(s.hw, s.graph, w.block_size,
                                     "nvmeof " + w.name);
    }
    for (const double a2 : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0}) {
        const auto s = apps::make_panic_parallel_chain(a2);
        expect_printf_bytes_at_loads(s.hw, s.graph, Bytes{512.0},
                                     "panic parallel " + std::to_string(a2));
    }
    for (const double ip3 : {0.2, 0.5, 0.8})
        for (std::uint32_t d = 1; d <= 8; ++d) {
            const auto s = apps::make_panic_hybrid(ip3, d);
            expect_printf_bytes_at_loads(s.hw, s.graph, Bytes{1500.0},
                                         "panic hybrid "
                                             + std::to_string(ip3) + " x"
                                             + std::to_string(d));
        }

    // Hand-built edge values. 0.125 and 0.375 are exact binary ties at
    // "%.2f", 2.5 and 0.5 at "%.0f", 0.25 at "%.1f", 0.03125 at "%.4f";
    // printf rounds them half to even. 1e15 + 0.5 is exact.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double dmax = std::numeric_limits<double>::max();
    const std::vector<double> values = {
        0.0, -0.0, nan, -nan, inf, -inf, tiny, -tiny,
        std::numeric_limits<double>::min() / 3.0, 0.0005, 0.0015, -0.0005,
        0.125, 0.375, 0.25, 0.5, 2.5, 0.03125, 1e15 + 0.5, -(1e15 + 0.5),
        99999.9995, 123456.789, 1234567.891, 1.0, 12.5, 1e60, 1e300, dmax,
        -dmax};
    // Class weights: 12.5% prints "12", 2.5% "2" and 1.5% "2".
    const std::vector<TrafficProfile> class_sets = {
        test::mtu_traffic(10.0),
        TrafficProfile::mixed({{Bytes{64.0}, 0.125}, {Bytes{1500.0}, 0.875}},
                              Bandwidth::from_gbps(10.0)),
        TrafficProfile::mixed({{Bytes{64.0}, 0.025},
                               {Bytes{512.0}, 0.015},
                               {Bytes{1500.0}, 0.96}},
                              Bandwidth::from_gbps(10.0)),
        TrafficProfile::mixed({{Bytes{64.0}, tiny}, {Bytes{1500.0}, 1.0}},
                              Bandwidth::from_gbps(10.0))};
    for (const auto& classes : class_sets)
        for (const double v : values)
            expect_printf_bytes_of_value(v, classes);
}

/// The text between the first @p before in @p text and the next @p after.
std::string
between(const std::string& text, const std::string& before,
        const std::string& after)
{
    const auto start = text.find(before);
    if (start == std::string::npos)
        return "";
    const auto from = start + before.size();
    return text.substr(from, text.find(after, from) - from);
}

/// @p token is all of "%.<precision>f" of @p value: digits, a point and
/// @p precision decimals that read back as @p value. A token cut short
/// loses decimals or reads back as another number.
void
expect_whole_number(const std::string& token, double value, int precision)
{
    const auto point = token.find('.');
    ASSERT_NE(point, std::string::npos) << token;
    EXPECT_EQ(token.size() - point - 1, static_cast<std::size_t>(precision))
        << token;
    EXPECT_EQ(token.find_first_not_of("0123456789."), std::string::npos)
        << token;
    EXPECT_EQ(std::strtod(token.c_str(), nullptr), value) << token;
}

// 1e299 Gbps is 1e308 bit/s, about the widest bandwidth a double holds.
TEST(Reporting, WideNumbersPrintWhole)
{
    const auto traffic = test::mtu_traffic(10.0);
    Report report;
    report.throughput.capacity = Bandwidth::from_gbps(1e60);
    report.throughput.achieved = Bandwidth::from_gbps(1.0);
    ThroughputEstimate t;
    t.capacity = Bandwidth::from_gbps(1e299);
    report.throughput.per_class.push_back(t);
    HopLatency hop;
    hop.vertex = "cores";
    hop.queueing = Seconds::from_micros(1e300);
    PathLatency path;
    path.hops = {hop};
    LatencyEstimate l;
    l.paths = {path};
    report.latency.per_class.push_back(l);

    const auto text = render_report(report, traffic);
    expect_whole_number(between(text, "Throughput: capacity ", " Gbps"),
                        report.throughput.capacity.gbps(), 3);
    expect_whole_number(between(text, "1500B: capacity ", " Gbps"),
                        t.capacity.gbps(), 3);
    expect_whole_number(between(text, "cores: Q=", " C="),
                        hop.queueing.micros(), 3);

    const auto hw = test::small_nic();
    ExecutionGraph g = test::two_stage_graph(hw);
    g.edge(1).params.dedicated_bw = Bandwidth::from_gbps(1e299);
    expect_whole_number(between(to_dot(g, hw), " bw=", "G\""),
                        g.edge(1).params.dedicated_bw->gbps(), 1);
}

} // namespace
} // namespace lognic::core
