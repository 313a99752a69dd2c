#include "lognic/dse/spec.hpp"

#include <stdexcept>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {
namespace {

[[noreturn]] void
bad_spec(const std::string& why)
{
    throw std::runtime_error("explore spec: " + why);
}

io::Scenario
base_scenario(const io::Json& doc, const io::Json& dse)
{
    const bool has_scenario = doc.contains("scenario");
    const bool has_base = dse.contains("base");
    if (has_scenario == has_base)
        bad_spec("exactly one of \"scenario\" / dse.\"base\" required");
    if (has_scenario)
        return io::scenario_from_json(doc.at("scenario"));
    const std::string base = dse.at("base").as_string();
    if (base != "nf_chain")
        bad_spec("unknown base '" + base + "' (nf_chain)");
    const auto built = apps::make_nf_chain(apps::arm_only_placement());
    double rate_gbps = 50.0;
    double packet_bytes = 1500.0;
    if (dse.contains("traffic")) {
        const io::Json& t = dse.at("traffic");
        rate_gbps = t.number_or("rate_gbps", rate_gbps);
        packet_bytes = t.number_or("packet_bytes", packet_bytes);
    }
    if (!(rate_gbps > 0.0) || !(packet_bytes > 0.0))
        bad_spec("traffic rate_gbps and packet_bytes must be > 0");
    io::Scenario sc{built.hw, built.graph,
                    core::TrafficProfile::fixed(
                        Bytes{packet_bytes},
                        Bandwidth::from_gbps(rate_gbps))};
    return sc;
}

} // namespace

ExploreSpec
explore_spec_from_json(const io::Json& doc)
{
    if (!doc.contains("dse"))
        bad_spec("missing \"dse\" section");
    const io::Json& dse = doc.at("dse");

    ExploreSpec spec{DesignSpace(base_scenario(doc, dse))};

    if (!dse.contains("knobs") || dse.at("knobs").as_array().empty())
        bad_spec("dse.\"knobs\" must list at least one knob");
    for (const io::Json& k : dse.at("knobs").as_array()) {
        if (k.is_string()) {
            spec.space.add(k.as_string(), {});
            continue;
        }
        const std::string path = k.at("path").as_string();
        std::vector<double> values;
        if (k.contains("values"))
            for (const io::Json& v : k.at("values").as_array())
                values.push_back(v.as_number());
        spec.space.add(path, std::move(values),
                       k.number_or("cost_weight", 0.0));
    }

    if (!dse.contains("objectives")
        || dse.at("objectives").as_array().empty())
        bad_spec("dse.\"objectives\" must list at least one objective");
    for (const io::Json& o : dse.at("objectives").as_array())
        spec.objectives.push_back(objective_from_name(o.as_string()));

    if (dse.contains("constraints")) {
        for (const io::Json& c : dse.at("constraints").as_array()) {
            Constraint con;
            con.metric = c.at("metric").as_string();
            objective_from_name(con.metric); // known-name check
            con.lower = c.number_or("lower", con.lower);
            con.upper = c.number_or("upper", con.upper);
            spec.constraints.push_back(std::move(con));
        }
    }

    ExploreOptions& opts = spec.options;
    if (dse.contains("strategy"))
        opts.strategy = strategy_from_name(dse.at("strategy").as_string());
    if (dse.contains("prune"))
        opts.prune = prune_mode_from_name(dse.at("prune").as_string());
    opts.seed = io::uint_or(dse, "seed", opts.seed);
    opts.budget = io::uint_or(dse, "budget", opts.budget);
    opts.population = io::uint_or(dse, "population", opts.population);
    opts.generations = io::uint_or(dse, "generations", opts.generations);
    opts.exhaustive_limit =
        io::uint_or(dse, "exhaustive_limit", opts.exhaustive_limit);
    if (dse.contains("des")) {
        const io::Json& d = dse.at("des");
        if (d.contains("enabled"))
            opts.des.enabled = d.at("enabled").as_bool();
        opts.des.replications =
            io::uint_or(d, "replications", opts.des.replications);
        opts.des.duration = d.number_or("duration", opts.des.duration);
        opts.des.warmup_fraction =
            d.number_or("warmup_fraction", opts.des.warmup_fraction);
        if (!(opts.des.duration > 0.0))
            bad_spec("des.duration must be > 0");
        if (opts.des.warmup_fraction < 0.0 || opts.des.warmup_fraction >= 1.0)
            bad_spec("des.warmup_fraction must be in [0, 1)");
    }
    return spec;
}

std::string
sample_explore_spec()
{
    io::Json dse;
    dse.set("base", io::Json("nf_chain"));
    io::Json traffic;
    traffic.set("rate_gbps", io::Json(50.0));
    traffic.set("packet_bytes", io::Json(1500.0));
    dse.set("traffic", std::move(traffic));
    io::Json knobs{io::JsonArray{}};
    knobs.push_back(io::Json("placement.nf_chain"));
    dse.set("knobs", std::move(knobs));
    io::Json objectives{io::JsonArray{}};
    objectives.push_back(io::Json("throughput_gbps"));
    objectives.push_back(io::Json("p99_latency_us"));
    dse.set("objectives", std::move(objectives));
    dse.set("strategy", io::Json("exhaustive"));
    dse.set("seed", io::Json(42));
    io::Json des;
    des.set("enabled", io::Json(true));
    des.set("replications", io::Json(2));
    des.set("duration", io::Json(0.005));
    des.set("warmup_fraction", io::Json(0.2));
    dse.set("des", std::move(des));
    io::Json doc;
    doc.set("dse", std::move(dse));
    return doc.dump(2);
}

} // namespace lognic::dse
