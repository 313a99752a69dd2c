#include "lognic/dse/design_space.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/calib/parameter_space.hpp"
#include "lognic/io/checkpoint.hpp"

namespace lognic::dse {
namespace {

[[noreturn]] void
bad_knob(const std::string& path, const std::string& why)
{
    throw std::invalid_argument("design space knob '" + path + "': " + why);
}

void
validate_levels(const std::string& path, const std::vector<double>& values)
{
    if (values.empty())
        bad_knob(path, "needs at least one level");
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i]))
            bad_knob(path, "levels must be finite");
        if (i > 0 && values[i] <= values[i - 1])
            bad_knob(path, "levels must be strictly increasing");
    }
}

void
validate_integer_levels(const std::string& path,
                        const std::vector<double>& values, double minimum)
{
    for (double v : values) {
        if (v != std::floor(v))
            bad_knob(path, "levels must be integers");
        if (v < minimum)
            bad_knob(path,
                     "levels must be >= " + std::to_string(
                                                static_cast<long long>(minimum)));
    }
}

/// Split "vertex.<name>.parallelism"-style paths on dots.
std::vector<std::string>
split_path(const std::string& path)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= path.size()) {
        const std::size_t dot = path.find('.', begin);
        if (dot == std::string::npos) {
            parts.push_back(path.substr(begin));
            break;
        }
        parts.push_back(path.substr(begin, dot - begin));
        begin = dot + 1;
    }
    return parts;
}

/// Resolve a calib::ParameterSpace catalog path against the base scenario
/// and return its setter. Validation (unknown IP/ceiling/vertex, malformed
/// indices) happens here, with calib's own error messages.
std::function<void(calib::Candidate&, double)>
resolve_catalog_setter(const io::Scenario& base, const std::string& path,
                       const std::vector<double>& values)
{
    calib::ParameterSpace probe(calib::Candidate{base.hw, {base.graph}});
    double lower = values.front();
    double upper = values.back();
    if (lower >= upper)
        upper = lower + std::max(1.0, std::fabs(lower));
    const std::size_t idx = probe.add(path, lower, upper);
    return probe.parameter(idx).set;
}

} // namespace

DesignSpace::DesignSpace(io::Scenario base) : base_(std::move(base)) {}

std::optional<std::size_t>
DesignSpace::find(const std::string& name) const
{
    for (std::size_t i = 0; i < knobs_.size(); ++i)
        if (knobs_[i].name == name)
            return i;
    return std::nullopt;
}

std::size_t
DesignSpace::add(const std::string& path, std::vector<double> values,
                 double cost_weight)
{
    Knob k;
    k.name = path;
    k.cost_weight = cost_weight;
    const std::vector<std::string> parts = split_path(path);

    if (path == "placement.nf_chain") {
        const auto placements = apps::all_placements();
        const std::size_t count = placements.size();
        if (values.empty())
            for (std::size_t i = 0; i < count; ++i)
                values.push_back(static_cast<double>(i));
        validate_levels(path, values);
        validate_integer_levels(path, values, 0.0);
        if (values.back() >= static_cast<double>(count))
            bad_knob(path, "placement index out of range (0.."
                               + std::to_string(count - 1) + ")");
        // Indexed by placement; only the declared levels are built.
        using Chains = std::vector<std::optional<apps::NfChainScenario>>;
        auto chains = std::make_shared<Chains>(count);
        for (double v : values) {
            const auto p = static_cast<std::size_t>(v);
            (*chains)[p] = apps::make_nf_chain(placements[p]);
        }
        k.values = std::move(values);
        k.rebuilds_scenario = true;
        k.apply = [chains = std::shared_ptr<const Chains>(std::move(chains))](
                      io::Scenario& sc, double v) {
            const apps::NfChainScenario& built =
                chains->at(static_cast<std::size_t>(v)).value();
            sc.hw = built.hw;
            sc.graph = built.graph;
        };
        return add_custom(std::move(k));
    }

    validate_levels(path, values);

    if (parts.size() == 3 && parts[0] == "vertex") {
        const std::string vertex_name = parts[1];
        if (!base_.graph.find_vertex(vertex_name))
            bad_knob(path, "no vertex named '" + vertex_name
                               + "' in the base graph");
        validate_integer_levels(path, values, 1.0);
        if (values.back() > std::numeric_limits<std::uint32_t>::max())
            bad_knob(path, "level out of range");
        k.values = std::move(values);
        k.base_bound = true;
        const bool is_parallelism = parts[2] == "parallelism";
        if (!is_parallelism && parts[2] != "queue_capacity")
            bad_knob(path, "unknown vertex field '" + parts[2]
                               + "' (parallelism, queue_capacity)");
        k.apply = [vertex_name, is_parallelism, path](io::Scenario& sc,
                                                      double v) {
            const auto id = sc.graph.find_vertex(vertex_name);
            if (!id)
                bad_knob(path, "vertex '" + vertex_name
                                   + "' missing at apply time");
            auto& params = sc.graph.vertex(*id).params;
            if (is_parallelism)
                params.parallelism = static_cast<std::uint32_t>(v);
            else
                params.queue_capacity = static_cast<std::uint32_t>(v);
        };
        return add_custom(std::move(k));
    }

    if (path == "traffic.rate_gbps") {
        if (values.front() <= 0.0)
            bad_knob(path, "levels must be > 0");
        k.values = std::move(values);
        k.apply = [](io::Scenario& sc, double v) {
            sc.traffic.set_ingress_bandwidth(Bandwidth::from_gbps(v));
        };
        return add_custom(std::move(k));
    }

    // Everything else is a hardware-catalog / graph-overhead path,
    // resolved (and rejected by name) by calib::ParameterSpace.
    auto set = resolve_catalog_setter(base_, path, values);
    k.values = std::move(values);
    k.base_bound = parts[0] == "ip" || parts[0] == "graph";
    k.apply = [set = std::move(set)](io::Scenario& sc, double v) {
        calib::Candidate c{std::move(sc.hw), {}};
        c.graphs.push_back(std::move(sc.graph));
        set(c, v);
        sc.hw = std::move(c.hw);
        sc.graph = std::move(c.graphs.front());
    };
    return add_custom(std::move(k));
}

std::size_t
DesignSpace::add_custom(Knob k)
{
    if (k.name.empty())
        throw std::invalid_argument("design space knob: name must be "
                                    "non-empty");
    if (find(k.name))
        bad_knob(k.name, "duplicate knob");
    validate_levels(k.name, k.values);
    if (!k.apply)
        bad_knob(k.name, "apply function must be set");
    if (k.rebuilds_scenario && k.base_bound)
        bad_knob(k.name, "a knob cannot both rebuild the scenario and "
                         "bind base-scenario names");
    for (const Knob& other : knobs_) {
        if (k.rebuilds_scenario && other.base_bound)
            bad_knob(k.name, "rebuilds the scenario but knob '" + other.name
                                 + "' is bound to base-scenario names");
        if (k.base_bound && other.rebuilds_scenario)
            bad_knob(k.name, "bound to base-scenario names but knob '"
                                 + other.name + "' rebuilds the scenario");
    }
    knobs_.push_back(std::move(k));
    return knobs_.size() - 1;
}

std::uint64_t
DesignSpace::combinations() const
{
    std::uint64_t total = 1;
    for (const Knob& k : knobs_) {
        const std::uint64_t n = k.values.size();
        if (total > std::numeric_limits<std::uint64_t>::max() / n)
            return std::numeric_limits<std::uint64_t>::max();
        total *= n;
    }
    return total;
}

void
DesignSpace::validate(const Config& c) const
{
    if (c.size() != knobs_.size())
        throw std::invalid_argument(
            "design space config: expected " + std::to_string(knobs_.size())
            + " levels, got " + std::to_string(c.size()));
    for (std::size_t i = 0; i < c.size(); ++i)
        if (c[i] >= knobs_[i].values.size())
            throw std::invalid_argument(
                "design space config: level " + std::to_string(c[i])
                + " out of range for knob '" + knobs_[i].name + "'");
}

io::Scenario
DesignSpace::materialize(const Config& c) const
{
    validate(c);
    io::Scenario sc = base_;
    // Rebuild knobs first: they replace hw + graph, and every other knob
    // was checked compatible with (or independent of) the rebuilt state.
    for (std::size_t i = 0; i < c.size(); ++i)
        if (knobs_[i].rebuilds_scenario)
            knobs_[i].apply(sc, knobs_[i].values[c[i]]);
    for (std::size_t i = 0; i < c.size(); ++i)
        if (!knobs_[i].rebuilds_scenario)
            knobs_[i].apply(sc, knobs_[i].values[c[i]]);
    return sc;
}

double
DesignSpace::cost(const Config& c) const
{
    validate(c);
    double total = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
        total += knobs_[i].values[c[i]] * knobs_[i].cost_weight;
    return total;
}

std::string
DesignSpace::canonical_key(const Config& c) const
{
    validate(c);
    std::string key;
    for (std::size_t i = 0; i < c.size(); ++i) {
        key += knobs_[i].name;
        key += '=';
        key += io::double_to_hex(knobs_[i].values[c[i]]);
        key += ';';
    }
    return key;
}

std::uint64_t
DesignSpace::fingerprint(const Config& c) const
{
    return io::fnv1a64(canonical_key(c));
}

io::Json
DesignSpace::config_json(const Config& c) const
{
    validate(c);
    io::Json out;
    for (std::size_t i = 0; i < c.size(); ++i)
        out.set(knobs_[i].name, io::Json(knobs_[i].values[c[i]]));
    return out;
}

} // namespace lognic::dse
