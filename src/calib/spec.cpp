#include "lognic/calib/spec.hpp"

#include <stdexcept>
#include <string>

namespace lognic::calib {

namespace {

std::vector<double>
doubles_or(const io::Json& j, const std::string& key)
{
    std::vector<double> out;
    if (!j.contains(key))
        return out;
    for (const auto& v : j.at(key).as_array())
        out.push_back(v.as_number());
    return out;
}

} // namespace

CalibSpec
calib_spec_from_json(const io::Json& doc)
{
    if (!doc.contains("scenario") || !doc.contains("calib"))
        throw std::runtime_error(
            "calibration spec: need both \"scenario\" and \"calib\"");
    const io::Scenario scenario =
        io::scenario_from_json(doc.at("scenario"));
    const io::Json& c = doc.at("calib");

    // The free parameters over the scenario's catalog + graph.
    Candidate base{scenario.hw, {scenario.graph}};
    ParameterSpace space(std::move(base));
    if (!c.contains("parameters")
        || c.at("parameters").as_array().empty())
        throw std::runtime_error(
            "calibration spec: \"calib.parameters\" must name at least "
            "one parameter");
    for (const auto& p : c.at("parameters").as_array()) {
        if (p.is_string()) {
            space.add(p.as_string());
        } else if (p.contains("lower") || p.contains("upper")) {
            space.add(p.at("name").as_string(),
                      p.at("lower").as_number(),
                      p.at("upper").as_number());
        } else {
            space.add(p.at("name").as_string());
        }
    }

    CalibratorOptions options;
    if (c.contains("loss"))
        options.loss = loss_from_json(c.at("loss"));
    // Levenberg-Marquardt is the one fitting engine. Specs may still name
    // it (every spec `lognic example calib` once wrote does); naming any
    // other engine is an error, not a silent substitution.
    if (c.contains("backend")
        && !(c.at("backend").is_string()
             && c.at("backend").as_string() == kFitEngine))
        throw std::runtime_error(
            std::string("calibration spec: \"calib.backend\" must be \"")
            + kFitEngine + "\" (the only fitting engine) or absent, got "
            + c.at("backend").dump(-1));
    options.fit.starts = io::uint_or<std::size_t>(c, "starts", 4);
    options.fit.threads = io::uint_or<std::size_t>(c, "threads", 1);
    options.fit.seed = io::uint_or<std::uint64_t>(c, "seed", 42);
    options.fit.max_iterations =
        io::uint_or<std::size_t>(c, "max_iterations", 200);
    options.holdout_fraction = c.number_or("holdout_fraction", 0.0);
    options.k_folds = io::uint_or<std::size_t>(c, "k_folds", 0);

    if (c.contains("dataset") == c.contains("generate"))
        throw std::runtime_error(
            "calibration spec: give exactly one of \"calib.dataset\" "
            "(measured points) or \"calib.generate\" (DES synthesis)");

    Dataset data;
    if (c.contains("dataset")) {
        data = dataset_from_json(c.at("dataset"));
    } else {
        const io::Json& g = c.at("generate");
        GenerationSpec gen;
        gen.rates_gbps = doubles_or(g, "rates_gbps");
        gen.packet_sizes_bytes = doubles_or(g, "packet_sizes");
        gen.replications = io::uint_or<std::size_t>(g, "replications", 1);
        gen.root_seed =
            io::uint_or<std::uint64_t>(g, "seed", options.fit.seed);
        gen.threads = options.fit.threads;
        gen.sim.duration = g.number_or("duration", 0.004);
        data = generate_dataset(scenario.hw, scenario.graph,
                                scenario.traffic, gen);
    }

    return CalibSpec{std::move(space), std::move(data),
                     std::move(options)};
}

std::string
sample_calib_spec(const io::Scenario& base)
{
    io::Json parameters{io::JsonArray{}};
    // Expose the first IP's per-request cost plus the shared interface —
    // the two knobs any scenario has.
    if (base.hw.ip_count() > 0)
        parameters.push_back("ip." + base.hw.ip(0).name
                             + ".fixed_cost_us");
    io::Json interface_param;
    interface_param.set("name", "interface_gbps");
    interface_param.set("lower",
                        base.hw.interface_bandwidth().gbps() / 4.0);
    interface_param.set("upper",
                        base.hw.interface_bandwidth().gbps() * 4.0);
    parameters.push_back(std::move(interface_param));

    io::Json loss;
    loss.set("throughput_weight", 1.0);
    loss.set("latency_weight", 0.25);

    io::Json generate;
    io::Json rates{io::JsonArray{}};
    const double line = base.hw.line_rate().gbps();
    rates.push_back(0.25 * line);
    rates.push_back(0.5 * line);
    rates.push_back(0.75 * line);
    rates.push_back(line);
    generate.set("rates_gbps", std::move(rates));
    io::Json sizes{io::JsonArray{}};
    sizes.push_back(256);
    sizes.push_back(1024);
    generate.set("packet_sizes", std::move(sizes));
    generate.set("replications", 1);
    generate.set("duration", 0.002);
    generate.set("seed", 42);

    io::Json calib;
    calib.set("parameters", std::move(parameters));
    calib.set("loss", std::move(loss));
    calib.set("starts", 2);
    calib.set("threads", 1);
    calib.set("seed", 42);
    calib.set("max_iterations", 60);
    calib.set("holdout_fraction", 0.25);
    calib.set("generate", std::move(generate));

    io::Json doc;
    doc.set("scenario", io::to_json(base));
    doc.set("calib", std::move(calib));
    return doc.dump(2);
}

} // namespace lognic::calib
