#include "lognic/fault/degradation.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>

#include "lognic/core/model.hpp"

namespace lognic::fault {

namespace {

/// Steady fault state at one instant, accumulated by replaying a plan.
struct SteadyState {
    std::map<std::string, std::int64_t> engines_down;
    std::map<std::string, double> slowdown;   // service-time multiplier
    std::map<std::string, double> link_factor; // "interface"/"memory" keys
    std::map<std::string, std::uint32_t> queue_cap;
};

/**
 * Replay @p plan to instant @p t. An event with duration > 0 whose window
 * [at, at + duration) has already closed by @p t contributes nothing;
 * open-ended events stay in force until a later event counters them
 * (assignment semantics: the last slowdown/degrade/capacity writer wins).
 */
SteadyState
replay(const FaultPlan& plan, double t)
{
    struct Timed {
        double at;
        FaultEvent ev;
        bool inverse;
    };
    std::vector<Timed> timeline;
    for (const FaultEvent& ev : plan.sorted()) {
        timeline.push_back({ev.at, ev, false});
        if (ev.duration > 0.0)
            timeline.push_back({ev.at + ev.duration, ev, true});
    }
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const Timed& a, const Timed& b) { return a.at < b.at; });

    SteadyState st;
    for (const Timed& item : timeline) {
        if (item.at > t)
            break;
        const FaultEvent& ev = item.ev;
        switch (ev.kind) {
          case FaultKind::kEngineFail:
            st.engines_down[ev.target] +=
                item.inverse ? -static_cast<std::int64_t>(ev.count)
                             : static_cast<std::int64_t>(ev.count);
            break;
          case FaultKind::kEngineRecover:
            st.engines_down[ev.target] +=
                item.inverse ? static_cast<std::int64_t>(ev.count)
                             : -static_cast<std::int64_t>(ev.count);
            break;
          case FaultKind::kSlowdown:
            st.slowdown[ev.target] = item.inverse ? 1.0 : ev.factor;
            break;
          case FaultKind::kLinkDegrade:
            st.link_factor[ev.target] = item.inverse ? 1.0 : ev.factor;
            break;
          case FaultKind::kDropBurst:
            // Transient loss does not move the analytical operating point;
            // only the simulator can express it. Target existence is still
            // checked by the caller.
            break;
          case FaultKind::kQueueCapacity:
            st.queue_cap[ev.target] = item.inverse ? 0u : ev.capacity;
            break;
        }
    }
    return st;
}

std::uint32_t
effective_engines(const core::HardwareModel& hw, const core::Vertex& v)
{
    return v.params.parallelism != 0 ? v.params.parallelism
                                     : hw.ip(v.ip).max_engines;
}

} // namespace

FaultedScenario
apply_faults_at(const FaultPlan& plan, double t,
                const core::HardwareModel& hw,
                const core::ExecutionGraph& graph)
{
    plan.validate();

    // Every target must resolve as it does in the simulator, even when
    // the event kind ends up not changing any model parameter.
    for (const FaultEvent& ev : plan.events)
        (void)resolve_target(ev, graph);

    const SteadyState st = replay(plan, t);

    auto link_scale = [&st](const char* name) {
        auto it = st.link_factor.find(name);
        return it == st.link_factor.end() ? 1.0 : it->second;
    };
    core::HardwareModel degraded_hw(
        hw.name(), hw.interface_bandwidth() * link_scale("interface"),
        hw.memory_bandwidth() * link_scale("memory"), hw.line_rate());
    for (core::IpId id = 0; id < hw.ip_count(); ++id)
        degraded_hw.add_ip(hw.ip(id));
    for (const auto& [a, b, bw] : hw.ip_links())
        degraded_hw.set_ip_bandwidth(a, b, bw);

    core::ExecutionGraph degraded = graph;
    for (core::VertexId v = 0; v < degraded.vertex_count(); ++v) {
        core::Vertex& vx = degraded.vertex(v);
        if (vx.kind != core::VertexKind::kIp)
            continue;
        const std::uint32_t base = effective_engines(hw, vx);
        if (auto it = st.engines_down.find(vx.name);
            it != st.engines_down.end() && it->second > 0) {
            const auto down =
                std::min<std::int64_t>(it->second, static_cast<std::int64_t>(base) - 1);
            // The queueing model cannot express a zero-server vertex, so a
            // fully failed vertex is floored at one engine here; callers
            // needing the all-lost point special-case it (degradation_curve).
            vx.params.parallelism =
                static_cast<std::uint32_t>(static_cast<std::int64_t>(base) - std::max<std::int64_t>(down, 0));
        }
        if (auto it = st.slowdown.find(vx.name);
            it != st.slowdown.end() && it->second > 1.0)
            vx.params.acceleration /= it->second;
        if (auto it = st.queue_cap.find(vx.name);
            it != st.queue_cap.end() && it->second > 0)
            vx.params.queue_capacity = it->second;
    }

    return FaultedScenario{std::move(degraded_hw), std::move(degraded)};
}

DegradationCurve
degradation_curve(const core::HardwareModel& hw,
                  const core::ExecutionGraph& graph,
                  const core::TrafficProfile& traffic,
                  const std::string& vertex, double max_fraction)
{
    if (!(max_fraction > 0.0) || max_fraction > 1.0)
        throw std::invalid_argument(
            "degradation_curve: max_fraction must be in (0, 1], got "
            + std::to_string(max_fraction));
    const auto vid = graph.find_vertex(vertex);
    if (!vid || graph.vertex(*vid).kind != core::VertexKind::kIp)
        throw std::invalid_argument(
            "degradation_curve: '" + vertex + "' is not an IP vertex of graph '"
            + graph.name() + "'");

    DegradationCurve curve;
    curve.vertex = vertex;
    curve.base_engines = effective_engines(hw, graph.vertex(*vid));

    const auto max_failed = static_cast<std::uint32_t>(
        static_cast<double>(curve.base_engines) * max_fraction);
    const core::Model model(hw);
    for (std::uint32_t k = 0; k <= max_failed; ++k) {
        DegradationPoint pt;
        pt.engines_failed = k;
        pt.engines_left = curve.base_engines - k;
        pt.fraction_failed =
            static_cast<double>(k) / static_cast<double>(curve.base_engines);
        if (pt.engines_left == 0) {
            // All engines lost: the vertex passes nothing; capacity and
            // throughput are zero and latency is undefined (reported as 0).
            curve.points.push_back(pt);
            continue;
        }
        core::ExecutionGraph g = graph;
        g.vertex(*vid).params.parallelism = pt.engines_left;
        const core::Report report = model.estimate(g, traffic);
        pt.capacity = report.throughput.capacity;
        pt.achieved = report.throughput.achieved;
        pt.mean_latency = report.latency.mean;
        curve.points.push_back(pt);
    }
    return curve;
}

io::Json
to_json(const DegradationCurve& curve)
{
    io::JsonArray points;
    for (const DegradationPoint& pt : curve.points) {
        io::JsonObject o;
        o.emplace("engines_failed", io::Json(static_cast<double>(pt.engines_failed)));
        o.emplace("engines_left", io::Json(static_cast<double>(pt.engines_left)));
        o.emplace("fraction_failed", io::Json(pt.fraction_failed));
        o.emplace("capacity_gbps", io::Json(pt.capacity.gbps()));
        o.emplace("achieved_gbps", io::Json(pt.achieved.gbps()));
        o.emplace("mean_latency_us", io::Json(pt.mean_latency.micros()));
        points.push_back(io::Json(std::move(o)));
    }
    io::JsonObject o;
    o.emplace("vertex", io::Json(curve.vertex));
    o.emplace("base_engines", io::Json(static_cast<double>(curve.base_engines)));
    o.emplace("points", io::Json(std::move(points)));
    return io::Json(std::move(o));
}

} // namespace lognic::fault
