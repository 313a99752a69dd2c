/**
 * @file
 * Completed-work journals: bit-exact JSON round-trips for the result
 * types the journal codecs carry. See journal.hpp for the format contract.
 */
#include "lognic/ckpt/journal.hpp"

#include <utility>

#include "lognic/io/checkpoint.hpp"

namespace lognic::ckpt {

namespace {

std::string
hexd(double v)
{
    return io::double_to_hex(v);
}

std::string
hexu(std::uint64_t v)
{
    return io::u64_to_hex(v);
}

double
get_d(const io::Json& j, const std::string& key)
{
    return io::double_from_hex(j.at(key).as_string(), "journal field " + key);
}

std::uint64_t
get_u(const io::Json& j, const std::string& key)
{
    return io::parse_u64(j.at(key).as_string(), "journal field " + key);
}

io::Json
hex_array(const std::vector<double>& values)
{
    io::Json a(io::JsonArray{});
    for (double v : values)
        a.push_back(hexd(v));
    return a;
}

std::vector<double>
hex_array_back(const io::Json& j, const std::string& key)
{
    std::vector<double> out;
    const auto& arr = j.at(key).as_array();
    out.reserve(arr.size());
    for (const auto& e : arr)
        out.push_back(io::double_from_hex(e.as_string(),
                                          "journal field " + key));
    return out;
}

} // namespace

// --- MetricsSnapshot ----------------------------------------------------------

io::Json
metrics_to_json(const obs::MetricsSnapshot& m)
{
    io::Json counters(io::JsonObject{});
    for (const auto& [name, value] : m.counters)
        counters.set(name, hexu(value));
    io::Json gauges(io::JsonObject{});
    for (const auto& [name, value] : m.gauges)
        gauges.set(name, hexd(value));
    io::Json histograms(io::JsonObject{});
    for (const auto& [name, h] : m.histograms) {
        io::Json hj;
        hj.set("bounds", hex_array(h.bounds));
        io::Json counts(io::JsonArray{});
        for (std::uint64_t c : h.counts)
            counts.push_back(hexu(c));
        hj.set("counts", std::move(counts));
        hj.set("total", hexu(h.total));
        hj.set("sum", hexd(h.sum));
        histograms.set(name, std::move(hj));
    }
    io::Json j;
    j.set("counters", std::move(counters));
    j.set("gauges", std::move(gauges));
    j.set("histograms", std::move(histograms));
    return j;
}

obs::MetricsSnapshot
metrics_from_json(const io::Json& j)
{
    obs::MetricsSnapshot m;
    for (const auto& [name, value] : j.at("counters").as_object())
        m.counters[name] =
            io::parse_u64(value.as_string(), "metrics counter " + name);
    for (const auto& [name, value] : j.at("gauges").as_object())
        m.gauges[name] =
            io::double_from_hex(value.as_string(), "metrics gauge " + name);
    for (const auto& [name, hj] : j.at("histograms").as_object()) {
        obs::HistogramSnapshot h;
        h.bounds = hex_array_back(hj, "bounds");
        for (const auto& c : hj.at("counts").as_array())
            h.counts.push_back(
                io::parse_u64(c.as_string(), "metrics histogram " + name));
        h.total = get_u(hj, "total");
        h.sum = get_d(hj, "sum");
        m.histograms.emplace(name, std::move(h));
    }
    return m;
}

// --- SimResult ----------------------------------------------------------------

io::Json
sim_result_to_json(const sim::SimResult& r)
{
    io::Json j;
    j.set("delivered", hexd(r.delivered.bits_per_sec()));
    j.set("delivered_ops", hexd(r.delivered_ops.per_sec()));
    j.set("mean_latency", hexd(r.mean_latency.seconds()));
    j.set("p50_latency", hexd(r.p50_latency.seconds()));
    j.set("p99_latency", hexd(r.p99_latency.seconds()));
    j.set("generated", hexu(r.generated));
    j.set("completed", hexu(r.completed));
    j.set("dropped", hexu(r.dropped));
    j.set("drop_rate", hexd(r.drop_rate));
    j.set("completed_total", hexu(r.completed_total));
    j.set("dropped_total", hexu(r.dropped_total));
    j.set("in_flight", hexu(r.in_flight));
    j.set("truncated", r.truncated);
    j.set("truncation_reason", r.truncation_reason);
    j.set("sim_time_reached", hexd(r.sim_time_reached));
    j.set("events_executed", hexu(r.events_executed));
    io::Json vertices(io::JsonArray{});
    for (const auto& vs : r.vertex_stats) {
        io::Json vj;
        vj.set("name", vs.name);
        vj.set("utilization", hexd(vs.utilization));
        vj.set("mean_occupancy", hexd(vs.mean_occupancy));
        vj.set("served", hexu(vs.served));
        vj.set("dropped", hexu(vs.dropped));
        vertices.push_back(std::move(vj));
    }
    j.set("vertex_stats", std::move(vertices));
    j.set("metrics", metrics_to_json(r.metrics));
    return j;
}

sim::SimResult
sim_result_from_json(const io::Json& j)
{
    sim::SimResult r;
    r.delivered = Bandwidth{get_d(j, "delivered")};
    r.delivered_ops = OpsRate{get_d(j, "delivered_ops")};
    r.mean_latency = Seconds{get_d(j, "mean_latency")};
    r.p50_latency = Seconds{get_d(j, "p50_latency")};
    r.p99_latency = Seconds{get_d(j, "p99_latency")};
    r.generated = get_u(j, "generated");
    r.completed = get_u(j, "completed");
    r.dropped = get_u(j, "dropped");
    r.drop_rate = get_d(j, "drop_rate");
    r.completed_total = get_u(j, "completed_total");
    r.dropped_total = get_u(j, "dropped_total");
    r.in_flight = get_u(j, "in_flight");
    r.truncated = j.at("truncated").as_bool();
    r.truncation_reason = j.at("truncation_reason").as_string();
    r.sim_time_reached = get_d(j, "sim_time_reached");
    r.events_executed = get_u(j, "events_executed");
    for (const auto& vj : j.at("vertex_stats").as_array()) {
        sim::VertexStats vs;
        vs.name = vj.at("name").as_string();
        vs.utilization = get_d(vj, "utilization");
        vs.mean_occupancy = get_d(vj, "mean_occupancy");
        vs.served = get_u(vj, "served");
        vs.dropped = get_u(vj, "dropped");
        r.vertex_stats.push_back(std::move(vs));
    }
    r.metrics = metrics_from_json(j.at("metrics"));
    return r;
}

// --- CompletedTask ------------------------------------------------------------

io::Json
completed_task_to_json(const runner::CompletedTask& t)
{
    io::Json j;
    j.set("ok", t.ok);
    j.set("seed", hexu(t.seed));
    j.set("attempts", hexu(static_cast<std::uint64_t>(t.attempts)));
    j.set("error", t.error);
    if (t.ok)
        j.set("result", sim_result_to_json(t.result));
    return j;
}

runner::CompletedTask
completed_task_from_json(const io::Json& j)
{
    runner::CompletedTask t;
    t.ok = j.at("ok").as_bool();
    t.seed = get_u(j, "seed");
    t.attempts = static_cast<std::size_t>(get_u(j, "attempts"));
    t.error = j.at("error").as_string();
    if (t.ok)
        t.result = sim_result_from_json(j.at("result"));
    return t;
}

// --- TrialOutcome -------------------------------------------------------------

namespace {

io::Json
trial_failure_to_json(const check::TrialFailure& f)
{
    io::Json j;
    j.set("name", f.name);
    j.set("generator_seed", hexu(f.generator_seed));
    j.set("single_queue", f.single_queue);
    io::Json violations(io::JsonArray{});
    for (const auto& v : f.violations) {
        // The plain fields keep the document readable; the *_bits fields
        // are what violation_from_json restores from (JSON numbers cannot
        // carry non-finite or full-precision doubles).
        io::Json vj = check::to_json(v);
        vj.set("measured_bits", hexd(v.measured));
        vj.set("expected_bits", hexd(v.expected));
        vj.set("tolerance_bits", hexd(v.tolerance));
        violations.push_back(std::move(vj));
    }
    j.set("violations", std::move(violations));
    // The minimal spec is a scenario document built from parsed JSON; the
    // io layer's %.17g round-trips every finite double it contains.
    j.set("minimal_spec", f.minimal_spec);
    return j;
}

check::TrialFailure
trial_failure_from_json(const io::Json& j)
{
    check::TrialFailure f;
    f.name = j.at("name").as_string();
    f.generator_seed = get_u(j, "generator_seed");
    f.single_queue = j.at("single_queue").as_bool();
    for (const auto& vj : j.at("violations").as_array())
        f.violations.push_back(check::violation_from_json(vj));
    f.minimal_spec = j.at("minimal_spec");
    return f;
}

} // namespace

io::Json
trial_outcome_to_json(const check::TrialOutcome& t)
{
    io::Json j;
    j.set("single_queue", t.single_queue);
    j.set("sims_run", hexu(t.sims_run));
    j.set("violations", hexu(t.violations));
    j.set("failed", t.failed);
    if (t.failed)
        j.set("failure", trial_failure_to_json(t.failure));
    return j;
}

check::TrialOutcome
trial_outcome_from_json(const io::Json& j)
{
    check::TrialOutcome t;
    t.single_queue = j.at("single_queue").as_bool();
    t.sims_run = get_u(j, "sims_run");
    t.violations = get_u(j, "violations");
    t.failed = j.at("failed").as_bool();
    if (t.failed)
        t.failure = trial_failure_from_json(j.at("failure"));
    return t;
}

// --- StartRecord --------------------------------------------------------------

io::Json
start_record_to_json(const calib::StartRecord& r)
{
    const calib::StartOutcome& o = r.outcome;
    io::Json oj;
    oj.set("index", hexu(static_cast<std::uint64_t>(o.index)));
    oj.set("seed", hexu(o.seed));
    oj.set("initial_loss", hexd(o.initial_loss));
    oj.set("final_loss", hexd(o.final_loss));
    oj.set("converged", o.converged);
    oj.set("failed", o.failed);
    oj.set("message", o.message);
    oj.set("iterations", hexu(static_cast<std::uint64_t>(o.iterations)));
    oj.set("model_solves", hexu(o.model_solves));
    oj.set("cache_hits", hexu(o.cache_hits));
    oj.set("cache_misses", hexu(o.cache_misses));
    io::Json j;
    j.set("outcome", std::move(oj));
    j.set("x", hex_array(r.x));
    j.set("residuals", hex_array(r.residuals));
    j.set("convergence", hex_array(r.convergence));
    return j;
}

calib::StartRecord
start_record_from_json(const io::Json& j)
{
    calib::StartRecord r;
    const io::Json& oj = j.at("outcome");
    r.outcome.index = static_cast<std::size_t>(get_u(oj, "index"));
    r.outcome.seed = get_u(oj, "seed");
    r.outcome.initial_loss = get_d(oj, "initial_loss");
    r.outcome.final_loss = get_d(oj, "final_loss");
    r.outcome.converged = oj.at("converged").as_bool();
    r.outcome.failed = oj.at("failed").as_bool();
    r.outcome.message = oj.at("message").as_string();
    r.outcome.iterations = static_cast<std::size_t>(get_u(oj, "iterations"));
    r.outcome.model_solves = get_u(oj, "model_solves");
    r.outcome.cache_hits = get_u(oj, "cache_hits");
    r.outcome.cache_misses = get_u(oj, "cache_misses");
    r.x = hex_array_back(j, "x");
    r.residuals = hex_array_back(j, "residuals");
    r.convergence = hex_array_back(j, "convergence");
    return r;
}

} // namespace lognic::ckpt
