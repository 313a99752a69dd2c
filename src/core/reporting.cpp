#include "lognic/core/reporting.hpp"

#include <charconv>
#include <cmath>
#include <string_view>

namespace lognic::core {

namespace {

/// printf's "%W.Pf" of a value: P decimals, right-justified with spaces
/// to W characters (no padding when the number is W or wider).
struct Fixed {
    double value;
    int precision;
    int width;
};

Fixed
fixed(double value, int precision, int width = 0)
{
    return {value, precision, width};
}

/// "1500B", or "64B (50% of bytes)" when the profile mixes sizes.
struct ClassLabel {
    const TrafficProfile& traffic;
    std::size_t index;
};

/**
 * Appends text, integers and fixed() numbers to one string. std::to_chars
 * with chars_format::fixed and a precision is specified as printf's
 * "%.Pf" in the C locale, so every number has printf's bytes, all of
 * them: the stack buffer holds any double.
 */
class Appender {
  public:
    explicit Appender(std::string& out) : out_(out) {}

    Appender& operator<<(std::string_view text)
    {
        out_.append(text);
        return *this;
    }

    Appender& operator<<(long long n)
    {
        char buf[20]; // a sign and 19 digits
        out_.append(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
        return *this;
    }

    Appender& operator<<(Fixed f)
    {
        // DBL_MAX has 309 integer digits; with a sign and the point, any
        // precision up to 19 fits.
        char buf[330];
        char* end = std::to_chars(buf, buf + sizeof(buf), f.value,
                                  std::chars_format::fixed, f.precision)
                        .ptr;
        if (end - buf < f.width)
            out_.append(static_cast<std::size_t>(f.width - (end - buf)), ' ');
        out_.append(buf, end);
        return *this;
    }

    Appender& operator<<(const ClassLabel& label)
    {
        const auto& classes = label.traffic.classes();
        const auto& c = classes[label.index];
        // trunc, not a long long cast: a size of 2^63 bytes or more has
        // no long long, and below that both print the same digits.
        *this << fixed(std::trunc(c.size.bytes()), 0) << "B";
        if (classes.size() > 1)
            *this << " (" << fixed(100.0 * c.weight, 0) << "% of bytes)";
        return *this;
    }

  private:
    std::string& out_;
};

void
append_throughput(std::string& s, const ThroughputReport& report,
                  const TrafficProfile& traffic)
{
    Appender os(s);
    os << "Throughput: capacity " << fixed(report.capacity.gbps(), 3)
       << " Gbps, achieved " << fixed(report.achieved.gbps(), 3)
       << " Gbps at " << fixed(traffic.ingress_bandwidth().gbps(), 3)
       << " Gbps offered\n";
    for (std::size_t i = 0; i < report.per_class.size(); ++i) {
        const auto& est = report.per_class[i];
        os << "  class " << ClassLabel{traffic, i} << ": capacity "
           << fixed(est.capacity.gbps(), 3) << " Gbps\n";
        for (const auto& term : est.terms) {
            const bool binding = term.name == est.bottleneck.name
                && term.kind == est.bottleneck.kind;
            os << "    " << (binding ? "-> " : "   ")
               << fixed(term.limit.gbps(), 3, 10) << " Gbps  "
               << to_string(term.kind) << "  " << term.name
               << (binding ? "  [bottleneck]" : "") << "\n";
        }
    }
}

void
append_latency(std::string& s, const LatencyReport& report,
               const TrafficProfile& traffic)
{
    Appender os(s);
    os << "Latency: mean " << fixed(report.mean.micros(), 3) << " us";
    if (report.max_drop_probability > 0.0)
        os << ", worst drop probability "
           << fixed(report.max_drop_probability, 4);
    os << "\n";
    for (std::size_t i = 0; i < report.per_class.size(); ++i) {
        const auto& est = report.per_class[i];
        os << "  class " << ClassLabel{traffic, i} << ": "
           << fixed(est.mean.micros(), 3) << " us, goodput "
           << fixed(est.goodput.gbps(), 3) << " Gbps\n";
        for (const auto& path : est.paths) {
            os << "    path (weight " << fixed(path.weight, 2)
               << "): " << fixed(path.total.micros(), 3) << " us\n";
            for (const auto& hop : path.hops) {
                os << "      " << hop.vertex << ": Q="
                   << fixed(hop.queueing.micros(), 3) << " C="
                   << fixed(hop.compute.micros(), 3) << " O="
                   << fixed(hop.overhead.micros(), 3) << " xfer="
                   << fixed(hop.transfer.micros(), 3) << " us\n";
            }
        }
    }
}

} // namespace

std::string
render_throughput(const ThroughputReport& report,
                  const TrafficProfile& traffic)
{
    std::string out;
    append_throughput(out, report, traffic);
    return out;
}

std::string
render_latency(const LatencyReport& report, const TrafficProfile& traffic)
{
    std::string out;
    append_latency(out, report, traffic);
    return out;
}

std::string
render_report(const Report& report, const TrafficProfile& traffic)
{
    std::string out;
    out.reserve(1024); // a generated scenario's report is ~820 bytes
    append_throughput(out, report.throughput, traffic);
    append_latency(out, report.latency, traffic);
    return out;
}

std::string
to_dot(const ExecutionGraph& graph, const HardwareModel& hw)
{
    std::string out;
    Appender os(out);
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
               << fixed(hw.line_rate().gbps(), 0) << "G)\"";
            os << ", shape=ellipse";
            break;
          case VertexKind::kRateLimiter:
            os << "\\n(shaper @ " << fixed(vx.rate_limit.gbps(), 1)
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
                os << ", g=" << fixed(vx.params.partition, 2);
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
           << fixed(p.delta, 2);
        if (p.alpha > 0.0)
            os << " a=" << fixed(p.alpha, 2);
        if (p.beta > 0.0)
            os << " b=" << fixed(p.beta, 2);
        if (p.dedicated_bw)
            os << " bw=" << fixed(p.dedicated_bw->gbps(), 1) << "G";
        os << "\"];\n";
    }
    os << "}\n";
    return out;
}

} // namespace lognic::core
