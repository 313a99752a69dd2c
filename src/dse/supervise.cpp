/**
 * @file
 * Exploration supervision: the exploration journal's entry codecs, the
 * campaign fingerprint, and the wiring of both into a ckpt::Campaign.
 */
#include "lognic/dse/supervise.hpp"

#include <stdexcept>
#include <utility>

#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {
namespace {

/**
 * Everything that shapes the result stream, hashed or listed verbatim:
 * base scenario, knob grid, objectives, constraints, strategy, seed, and
 * search/DES options. Thread count is excluded on purpose — it may never
 * influence results, so checkpoints are portable across --threads. The
 * prune mode is excluded for the same reason: pruning may never change
 * the result stream, so a journal written under --prune=on resumes
 * cleanly under --prune=off and vice versa.
 */
io::Json
campaign_fingerprint(const DesignSpace& space,
                     const std::vector<ObjectiveSpec>& objectives,
                     const std::vector<Constraint>& constraints,
                     const ExploreOptions& opts)
{
    io::Json fp;
    fp.set("workload", io::Json("explore"));
    fp.set("scenario", io::Json(io::u64_to_hex(io::fnv1a64(
                           io::to_json(space.base()).dump(-1)))));
    std::string knobs;
    for (std::size_t i = 0; i < space.size(); ++i) {
        const Knob& k = space.knob(i);
        knobs += k.name;
        knobs += '=';
        for (double v : k.values)
            knobs += io::double_to_hex(v) + ",";
        knobs += '@' + io::double_to_hex(k.cost_weight) + ';';
    }
    fp.set("knobs", io::Json(io::u64_to_hex(io::fnv1a64(knobs))));
    std::string objs;
    for (const ObjectiveSpec& o : objectives)
        objs += o.name + (o.sense == Sense::kMaximize ? ":max;" : ":min;");
    fp.set("objectives", io::Json(objs));
    std::string cons;
    for (const Constraint& c : constraints)
        cons += c.metric + ":" + io::double_to_hex(c.lower) + ":"
                + io::double_to_hex(c.upper) + ";";
    fp.set("constraints", io::Json(cons));
    fp.set("strategy", io::Json(strategy_name(opts.strategy)));
    fp.set("seed", io::Json(io::u64_to_hex(opts.seed)));
    fp.set("budget", io::Json(static_cast<double>(opts.budget)));
    fp.set("population", io::Json(static_cast<double>(opts.population)));
    fp.set("generations", io::Json(static_cast<double>(opts.generations)));
    io::Json des;
    des.set("enabled", io::Json(opts.des.enabled));
    des.set("replications",
            io::Json(static_cast<double>(opts.des.replications)));
    des.set("duration", io::Json(io::double_to_hex(opts.des.duration)));
    des.set("warmup_fraction",
            io::Json(io::double_to_hex(opts.des.warmup_fraction)));
    fp.set("des", std::move(des));
    return fp;
}

} // namespace

// --- journal entry serialization ----------------------------------------------

io::Json
evaluation_to_json(const Evaluation& e)
{
    io::Json j;
    io::Json objectives{io::JsonArray{}};
    for (double v : e.objectives)
        objectives.push_back(io::Json(io::double_to_hex(v)));
    j.set("objectives", std::move(objectives));
    j.set("feasible", io::Json(e.feasible));
    j.set("finite", io::Json(e.finite));
    j.set("pruned", io::Json(e.pruned));
    j.set("why", io::Json(e.why));
    return j;
}

Evaluation
evaluation_from_json(const io::Json& j)
{
    Evaluation e;
    for (const io::Json& v : j.at("objectives").as_array())
        e.objectives.push_back(
            io::double_from_hex(v.as_string(), "evaluation objective"));
    e.feasible = j.at("feasible").as_bool();
    e.finite = j.at("finite").as_bool();
    // Absent in journals written before pruning existed; those entries
    // were all real solves.
    e.pruned = j.contains("pruned") && j.at("pruned").as_bool();
    e.why = j.at("why").as_string();
    return e;
}

io::Json
des_validation_to_json(const DesValidation& v)
{
    io::Json j;
    j.set("ok", io::Json(v.ok));
    j.set("error", io::Json(v.error));
    j.set("seed", io::Json(io::u64_to_hex(v.seed)));
    j.set("replications", io::Json(io::u64_to_hex(v.replications)));
    j.set("delivered_gbps", io::Json(io::double_to_hex(v.delivered_gbps)));
    j.set("mean_latency_us",
          io::Json(io::double_to_hex(v.mean_latency_us)));
    j.set("p99_latency_us", io::Json(io::double_to_hex(v.p99_latency_us)));
    j.set("drop_rate", io::Json(io::double_to_hex(v.drop_rate)));
    j.set("throughput_disagreement",
          io::Json(io::double_to_hex(v.throughput_disagreement)));
    j.set("p99_disagreement",
          io::Json(io::double_to_hex(v.p99_disagreement)));
    return j;
}

DesValidation
des_validation_from_json(const io::Json& j)
{
    const auto dbl = [&](const char* key) {
        return io::double_from_hex(j.at(key).as_string(),
                                   std::string("des validation ") + key);
    };
    DesValidation v;
    v.ok = j.at("ok").as_bool();
    v.error = j.at("error").as_string();
    v.seed = io::parse_u64(j.at("seed").as_string(), "des validation seed");
    v.replications = io::parse_u64(j.at("replications").as_string(),
                                   "des validation replications");
    v.delivered_gbps = dbl("delivered_gbps");
    v.mean_latency_us = dbl("mean_latency_us");
    v.p99_latency_us = dbl("p99_latency_us");
    v.drop_rate = dbl("drop_rate");
    v.throughput_disagreement = dbl("throughput_disagreement");
    v.p99_disagreement = dbl("p99_disagreement");
    return v;
}

// --- ExploreJournal -----------------------------------------------------------

io::Json
ExploreJournal::to_json() const
{
    io::Json j = evals.to_json();
    j.set("des", des.to_json().at("des"));
    return j;
}

void
ExploreJournal::load_json(const io::Json& j)
{
    evals.load_json(j);
    des.load_json(j);
}

bool
ExploreJournal::replay(const std::string& record)
{
    return evals.replay(record) || des.replay(record);
}

// --- supervise_exploration ----------------------------------------------------

SupervisedExploration
supervise_exploration(const DesignSpace& space,
                      const std::vector<ObjectiveSpec>& objectives,
                      const std::vector<Constraint>& constraints,
                      ExploreOptions opts, const ckpt::SupervisorOptions& sup,
                      obs::MetricsRegistry* metrics)
{
    if (opts.resume_eval || opts.on_eval || opts.resume_des || opts.on_des)
        throw std::invalid_argument(
            "supervise_exploration: opts.resume_eval/on_eval/resume_des/"
            "on_des are owned by the supervisor and must be unset");

    ExploreJournal journal;
    ckpt::Campaign campaign(
        sup, kExploreCheckpointKind,
        campaign_fingerprint(space, objectives, constraints, opts), journal);
    opts.resume_eval = journal.evals.lookup_fn();
    opts.on_eval = journal.evals.record_fn(campaign.tick_fn());
    opts.resume_des = journal.des.lookup_fn();
    opts.on_des = journal.des.record_fn(campaign.tick_fn());

    FrontierReport report =
        explore(space, objectives, constraints, opts, metrics);
    campaign.flush();
    if (sup.log)
        sup.log("checkpoint: exploration finished; "
                + std::to_string(campaign.checkpoints())
                + " publication(s) to '" + sup.dir + "'");
    return {std::move(report), campaign.resume(), campaign.checkpoints()};
}

} // namespace lognic::dse
