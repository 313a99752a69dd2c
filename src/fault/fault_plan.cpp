#include "lognic/fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace lognic::fault {

namespace {

std::string
describe(std::size_t index, const FaultEvent& ev)
{
    return "FaultPlan event #" + std::to_string(index) + " ("
        + to_string(ev.kind) + " @" + std::to_string(ev.at) + "s, target '"
        + ev.target + "'): ";
}

} // namespace

const char*
to_string(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kEngineFail:
        return "engine_fail";
      case FaultKind::kEngineRecover:
        return "engine_recover";
      case FaultKind::kSlowdown:
        return "slowdown";
      case FaultKind::kLinkDegrade:
        return "link_degrade";
      case FaultKind::kDropBurst:
        return "drop_burst";
      case FaultKind::kQueueCapacity:
        return "queue_capacity";
    }
    return "unknown";
}

FaultKind
fault_kind_from_string(const std::string& name)
{
    for (FaultKind k :
         {FaultKind::kEngineFail, FaultKind::kEngineRecover,
          FaultKind::kSlowdown, FaultKind::kLinkDegrade,
          FaultKind::kDropBurst, FaultKind::kQueueCapacity}) {
        if (name == to_string(k))
            return k;
    }
    throw std::invalid_argument("unknown fault kind '" + name + "'");
}

const char*
to_string(InServicePolicy policy)
{
    return policy == InServicePolicy::kRequeue ? "requeue" : "drop";
}

InServicePolicy
in_service_policy_from_string(const std::string& name)
{
    if (name == "requeue")
        return InServicePolicy::kRequeue;
    if (name == "drop")
        return InServicePolicy::kDrop;
    throw std::invalid_argument(
        "unknown in-service policy '" + name + "' (want requeue|drop)");
}

std::vector<FaultEvent>
FaultPlan::sorted() const
{
    std::vector<FaultEvent> out = events;
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
    return out;
}

void
FaultPlan::validate() const
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent& ev = events[i];
        const std::string where = describe(i, ev);
        if (!std::isfinite(ev.at) || ev.at < 0.0)
            throw std::invalid_argument(where + "time must be finite and >= 0");
        if (!std::isfinite(ev.duration) || ev.duration < 0.0)
            throw std::invalid_argument(where + "duration must be >= 0");
        if (ev.target.empty())
            throw std::invalid_argument(where + "missing target name");
        switch (ev.kind) {
          case FaultKind::kEngineFail:
          case FaultKind::kEngineRecover:
            if (ev.count == 0)
                throw std::invalid_argument(where + "count must be >= 1");
            break;
          case FaultKind::kSlowdown:
            if (!std::isfinite(ev.factor) || ev.factor < 1.0)
                throw std::invalid_argument(
                    where + "slowdown factor must be >= 1");
            break;
          case FaultKind::kLinkDegrade:
            if (!std::isfinite(ev.factor) || ev.factor <= 0.0
                || ev.factor > 1.0)
                throw std::invalid_argument(
                    where + "degrade factor must be in (0, 1]");
            break;
          case FaultKind::kDropBurst:
            if (!std::isfinite(ev.probability) || ev.probability <= 0.0
                || ev.probability > 1.0)
                throw std::invalid_argument(
                    where + "drop probability must be in (0, 1]");
            break;
          case FaultKind::kQueueCapacity:
            if (ev.capacity == 0)
                throw std::invalid_argument(
                    where + "capacity override must be >= 1");
            break;
        }
    }
}

std::size_t
resolve_target(const FaultEvent& event, const core::ExecutionGraph& graph)
{
    const std::string what = std::string("fault target '") + event.target
        + "' of " + to_string(event.kind) + ": ";
    if (event.kind == FaultKind::kLinkDegrade) {
        if (event.target == "interface")
            return 0;
        if (event.target == "memory")
            return 1;
        throw std::invalid_argument(
            what + "link_degrade targets the shared link 'interface' or "
                   "'memory'");
    }
    const auto vid = graph.find_vertex(event.target);
    if (!vid)
        throw std::invalid_argument(what + "not a vertex of graph '"
                                    + graph.name() + "'");
    const core::VertexKind kind = graph.vertex(*vid).kind;
    if (kind != core::VertexKind::kIp && kind != core::VertexKind::kRateLimiter)
        throw std::invalid_argument(
            what + "an " + core::to_string(kind)
            + " vertex; only IP and rate-limiter vertices fault");
    return *vid;
}

FaultPlan
random_fault_plan(std::uint64_t seed,
                  const std::vector<std::string>& targets,
                  const RandomFaultConfig& config)
{
    if (!(config.horizon > 0.0) || !(config.mtbf > 0.0)
        || !(config.mttr > 0.0) || config.max_engines_per_fault == 0)
        throw std::invalid_argument(
            "random_fault_plan: horizon/mtbf/mttr must be positive and "
            "max_engines_per_fault >= 1");
    FaultPlan plan;
    // One independent substream per target (seed + target index) keeps the
    // timeline of target i invariant under reordering of the target list's
    // tail — and mt19937_64 sequences are identical on every platform.
    for (std::size_t t = 0; t < targets.size(); ++t) {
        std::mt19937_64 rng(seed + 0x9E3779B97F4A7C15ull * (t + 1));
        std::exponential_distribution<double> ttf(1.0 / config.mtbf);
        std::exponential_distribution<double> ttr(1.0 / config.mttr);
        std::uniform_int_distribution<std::uint32_t> engines(
            1, config.max_engines_per_fault);
        double now = 0.0;
        for (;;) {
            now += ttf(rng);
            if (now >= config.horizon)
                break;
            FaultEvent fail;
            fail.at = now;
            fail.kind = FaultKind::kEngineFail;
            fail.target = targets[t];
            fail.count = engines(rng);
            const double repair = ttr(rng);
            // Clip the repair to the horizon: a failure that would outlive
            // the run simply stays in force (duration 0 = permanent).
            if (now + repair < config.horizon)
                fail.duration = repair;
            plan.events.push_back(fail);
            now += repair;
            if (now >= config.horizon)
                break;
        }
    }
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
    plan.validate();
    return plan;
}

io::Json
to_json(const FaultEvent& event)
{
    io::JsonObject o;
    o.emplace("at", io::Json(event.at));
    o.emplace("kind", io::Json(to_string(event.kind)));
    o.emplace("target", io::Json(event.target));
    switch (event.kind) {
      case FaultKind::kEngineFail:
      case FaultKind::kEngineRecover:
        o.emplace("count", io::Json(static_cast<double>(event.count)));
        break;
      case FaultKind::kSlowdown:
      case FaultKind::kLinkDegrade:
        o.emplace("factor", io::Json(event.factor));
        break;
      case FaultKind::kDropBurst:
        o.emplace("probability", io::Json(event.probability));
        break;
      case FaultKind::kQueueCapacity:
        o.emplace("capacity", io::Json(static_cast<double>(event.capacity)));
        break;
    }
    if (event.duration > 0.0)
        o.emplace("duration", io::Json(event.duration));
    return io::Json(std::move(o));
}

io::Json
to_json(const FaultPlan& plan)
{
    io::JsonArray events;
    for (const FaultEvent& ev : plan.events)
        events.push_back(to_json(ev));
    io::JsonObject o;
    o.emplace("faults", io::Json(std::move(events)));
    o.emplace("in_service_policy",
              io::Json(to_string(plan.in_service_policy)));
    return io::Json(std::move(o));
}

FaultPlan
fault_plan_from_json(const io::Json& doc)
{
    const io::Json* events = nullptr;
    FaultPlan plan;
    // Name-lookup and range errors surface as invalid_argument; re-wrap
    // them so this parser honors its all-runtime_error contract.
    try {
        if (doc.is_array()) {
            events = &doc;
        } else if (doc.is_object() && doc.contains("faults")) {
            events = &doc.at("faults");
            if (doc.contains("in_service_policy"))
                plan.in_service_policy = in_service_policy_from_string(
                    doc.at("in_service_policy").as_string());
        } else {
            throw std::runtime_error(
                "fault plan: expected {\"faults\": [...]} or a bare array");
        }
        for (const io::Json& j : events->as_array()) {
            if (!j.is_object() || !j.contains("kind")
                || !j.contains("target"))
                throw std::runtime_error(
                    "fault plan: each event needs \"kind\" and \"target\"");
            FaultEvent ev;
            ev.kind = fault_kind_from_string(j.at("kind").as_string());
            ev.target = j.at("target").as_string();
            ev.at = j.number_or("at", 0.0);
            ev.count = io::uint_or<std::uint32_t>(j, "count", 1);
            ev.factor = j.number_or("factor", 1.0);
            ev.duration = j.number_or("duration", 0.0);
            ev.probability = j.number_or("probability", 1.0);
            ev.capacity = io::uint_or<std::uint32_t>(j, "capacity", 1);
            plan.events.push_back(std::move(ev));
        }
        plan.validate();
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("fault plan: ") + e.what());
    }
    return plan;
}

std::string
sample_fault_plan()
{
    FaultPlan plan;
    FaultEvent fail;
    fail.at = 0.01;
    fail.kind = FaultKind::kEngineFail;
    fail.target = "cores";
    fail.count = 2;
    fail.duration = 0.02; // auto-recovers at t = 0.03
    plan.events.push_back(fail);

    FaultEvent degrade;
    degrade.at = 0.015;
    degrade.kind = FaultKind::kLinkDegrade;
    degrade.target = "memory";
    degrade.factor = 0.5;
    degrade.duration = 0.01;
    plan.events.push_back(degrade);

    FaultEvent burst;
    burst.at = 0.02;
    burst.kind = FaultKind::kDropBurst;
    burst.target = "crypto";
    burst.probability = 0.5;
    burst.duration = 0.002;
    plan.events.push_back(burst);

    return to_json(plan).dump();
}

} // namespace lognic::fault
