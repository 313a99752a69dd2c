#include "lognic/calib/parameter_space.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lognic/io/checkpoint.hpp"

namespace lognic::calib {

std::vector<std::string>
split_path(const std::string& path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= path.size()) {
        const std::size_t dot = path.find('.', start);
        if (dot == std::string::npos) {
            parts.push_back(path.substr(start));
            break;
        }
        parts.push_back(path.substr(start, dot - start));
        start = dot + 1;
    }
    return parts;
}

namespace {

[[noreturn]] void
bad_path(const std::string& path, const std::string& why)
{
    throw std::invalid_argument("ParameterSpace: cannot expose '" + path
                                + "': " + why);
}

core::IpId
ip_or_throw(const Candidate& c, const std::string& path,
            const std::string& name)
{
    const auto id = c.hw.find_ip(name);
    if (!id)
        bad_path(path, "no IP named '" + name + "'");
    return *id;
}

core::VertexId
vertex_or_throw(const Candidate& c, const std::string& path,
                std::size_t graph, const std::string& name)
{
    if (graph >= c.graphs.size())
        bad_path(path, "no graph with index " + std::to_string(graph));
    const auto v = c.graphs[graph].find_vertex(name);
    if (!v)
        bad_path(path, "no vertex named '" + name + "' in graph "
                           + std::to_string(graph));
    return *v;
}

/// Rebuild a roofline with one engine field changed (ExtendedRoofline is
/// immutable by design; calibration replaces it wholesale).
void
set_engine_field(core::IpSpec& spec, bool fixed_cost, double value)
{
    core::ServiceModel engine = spec.roofline.engine();
    if (fixed_cost)
        engine.fixed_cost = Seconds::from_micros(value);
    else
        engine.byte_rate = Bandwidth::from_gbps(value);
    spec.roofline =
        core::ExtendedRoofline(engine, spec.roofline.ceilings());
}

void
set_ceiling(core::IpSpec& spec, const std::string& ceiling, double gbps,
            const std::string& path)
{
    auto ceilings = spec.roofline.ceilings();
    for (auto& c : ceilings) {
        if (c.name == ceiling) {
            c.bw = Bandwidth::from_gbps(gbps);
            spec.roofline = core::ExtendedRoofline(
                spec.roofline.engine(), std::move(ceilings));
            return;
        }
    }
    bad_path(path, "IP '" + spec.name + "' has no ceiling named '"
                       + ceiling + "'");
}

/// Resolve a path into accessors, validating it against the base.
Parameter
resolve(const Candidate& base, const std::string& path)
{
    const auto parts = split_path(path);
    Parameter p;
    p.name = path;

    if (parts.size() == 1) {
        if (path == "interface_gbps") {
            p.get = [](const Candidate& c) {
                return c.hw.interface_bandwidth().gbps();
            };
            p.set = [](Candidate& c, double v) {
                c.hw.set_interface_bandwidth(Bandwidth::from_gbps(v));
            };
            return p;
        }
        if (path == "memory_gbps") {
            p.get = [](const Candidate& c) {
                return c.hw.memory_bandwidth().gbps();
            };
            p.set = [](Candidate& c, double v) {
                c.hw.set_memory_bandwidth(Bandwidth::from_gbps(v));
            };
            return p;
        }
        if (path == "line_rate_gbps") {
            p.get = [](const Candidate& c) {
                return c.hw.line_rate().gbps();
            };
            p.set = [](Candidate& c, double v) {
                c.hw.set_line_rate(Bandwidth::from_gbps(v));
            };
            return p;
        }
        bad_path(path, "unknown field");
    }

    if (parts[0] == "ip") {
        if (parts.size() == 3) {
            const std::string ip_name = parts[1];
            const std::string field = parts[2];
            ip_or_throw(base, path, ip_name);
            if (field == "fixed_cost_us") {
                p.get = [ip_name](const Candidate& c) {
                    return c.hw.ip(*c.hw.find_ip(ip_name))
                        .roofline.engine()
                        .fixed_cost.micros();
                };
                p.set = [ip_name](Candidate& c, double v) {
                    set_engine_field(c.hw.ip(*c.hw.find_ip(ip_name)),
                                     true, v);
                };
                return p;
            }
            if (field == "byte_rate_gbps") {
                p.get = [ip_name](const Candidate& c) {
                    return c.hw.ip(*c.hw.find_ip(ip_name))
                        .roofline.engine()
                        .byte_rate.gbps();
                };
                p.set = [ip_name](Candidate& c, double v) {
                    set_engine_field(c.hw.ip(*c.hw.find_ip(ip_name)),
                                     false, v);
                };
                return p;
            }
            if (field == "service_scv") {
                p.get = [ip_name](const Candidate& c) {
                    return c.hw.ip(*c.hw.find_ip(ip_name)).service_scv;
                };
                p.set = [ip_name](Candidate& c, double v) {
                    c.hw.ip(*c.hw.find_ip(ip_name)).service_scv = v;
                };
                return p;
            }
            bad_path(path, "unknown IP field '" + field + "'");
        }
        if (parts.size() == 5 && parts[2] == "ceiling"
            && parts[4] == "gbps") {
            const std::string ip_name = parts[1];
            const std::string ceiling = parts[3];
            // Validate both the IP and the ceiling now, not at apply time.
            {
                Candidate probe = base;
                set_ceiling(probe.hw.ip(ip_or_throw(base, path, ip_name)),
                            ceiling, 1.0, path);
            }
            p.get = [ip_name, ceiling](const Candidate& c) {
                const auto& spec = c.hw.ip(*c.hw.find_ip(ip_name));
                for (const auto& cl : spec.roofline.ceilings()) {
                    if (cl.name == ceiling)
                        return cl.bw.gbps();
                }
                return 0.0; // unreachable: validated above
            };
            p.set = [ip_name, ceiling, path](Candidate& c, double v) {
                set_ceiling(c.hw.ip(*c.hw.find_ip(ip_name)), ceiling, v,
                            path);
            };
            return p;
        }
        bad_path(path, "expected ip.<name>.<field> or "
                       "ip.<name>.ceiling.<ceiling>.gbps");
    }

    if (parts[0] == "graph" && parts.size() == 5 && parts[2] == "vertex"
        && parts[4] == "overhead_us") {
        std::size_t graph = 0;
        try {
            // Full-consumption parse: "12abc" is malformed, not 12.
            graph = static_cast<std::size_t>(
                io::parse_u64(parts[1], "parameter path \"" + path + "\""));
        } catch (const std::exception&) {
            bad_path(path, "graph index must be a number");
        }
        const std::string vertex = parts[3];
        vertex_or_throw(base, path, graph, vertex);
        p.get = [graph, vertex](const Candidate& c) {
            return c.graphs[graph]
                .vertex(*c.graphs[graph].find_vertex(vertex))
                .params.overhead.micros();
        };
        p.set = [graph, vertex](Candidate& c, double v) {
            c.graphs[graph]
                .vertex(*c.graphs[graph].find_vertex(vertex))
                .params.overhead = Seconds::from_micros(v);
        };
        return p;
    }

    bad_path(path, "unknown path");
}

} // namespace

ParameterSpace::ParameterSpace(Candidate base) : base_(std::move(base)) {}

std::size_t
ParameterSpace::add(const std::string& path)
{
    Parameter p = resolve(base_, path);
    const double value = p.get(base_);
    if (value <= 0.0)
        bad_path(path, "base value is not positive; give explicit bounds");
    p.lower = value / 8.0;
    p.upper = value * 8.0;
    return add_custom(std::move(p));
}

std::size_t
ParameterSpace::add(const std::string& path, double lower, double upper)
{
    Parameter p = resolve(base_, path);
    // Every built-in path is a physical quantity (a bandwidth, a cost);
    // arbitrary-sign parameters must go through add_custom().
    if (lower < 0.0)
        bad_path(path, "built-in quantities need a lower bound >= 0");
    p.lower = lower;
    p.upper = upper;
    return add_custom(std::move(p));
}

std::size_t
ParameterSpace::add_custom(Parameter p)
{
    if (!p.get || !p.set)
        throw std::invalid_argument(
            "ParameterSpace: parameter '" + p.name
            + "' needs both accessors");
    if (!(p.lower < p.upper))
        throw std::invalid_argument(
            "ParameterSpace: parameter '" + p.name
            + "' needs lower < upper bounds");
    if (find(p.name))
        throw std::invalid_argument(
            "ParameterSpace: duplicate parameter '" + p.name + "'");
    params_.push_back(std::move(p));
    return params_.size() - 1;
}

std::optional<std::size_t>
ParameterSpace::find(const std::string& name) const
{
    for (std::size_t i = 0; i < params_.size(); ++i) {
        if (params_[i].name == name)
            return i;
    }
    return std::nullopt;
}

solver::Vector
ParameterSpace::initial() const
{
    solver::Vector x(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i)
        x[i] = params_[i].get(base_);
    return x;
}

solver::Bounds
ParameterSpace::bounds() const
{
    solver::Bounds b;
    b.lower.resize(params_.size());
    b.upper.resize(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
        b.lower[i] = params_[i].lower;
        b.upper[i] = params_[i].upper;
    }
    return b;
}

solver::Vector
ParameterSpace::scales() const
{
    solver::Vector s(params_.size());
    const auto x0 = initial();
    for (std::size_t i = 0; i < params_.size(); ++i) {
        s[i] = std::max(std::abs(x0[i]),
                        (params_[i].upper - params_[i].lower) / 1000.0);
    }
    return s;
}

Candidate
ParameterSpace::apply(const solver::Vector& x) const
{
    if (x.size() != params_.size())
        throw std::invalid_argument(
            "ParameterSpace::apply: vector size mismatch");
    Candidate c = base_;
    for (std::size_t i = 0; i < params_.size(); ++i)
        params_[i].set(c, x[i]);
    return c;
}

solver::Vector
ParameterSpace::extract(const Candidate& c) const
{
    solver::Vector x(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i)
        x[i] = params_[i].get(c);
    return x;
}

} // namespace lognic::calib
