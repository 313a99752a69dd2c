#include "lognic/dse/report.hpp"

#include <cstdio>

#include "lognic/io/checkpoint.hpp"

namespace lognic::dse {
namespace {

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

io::Json
des_to_json(const DesValidation& v)
{
    io::Json j;
    j.set("ok", io::Json(v.ok));
    if (!v.error.empty())
        j.set("error", io::Json(v.error));
    j.set("seed", io::Json(io::u64_to_hex(v.seed)));
    j.set("replications", io::Json(static_cast<double>(v.replications)));
    j.set("delivered_gbps", io::Json(v.delivered_gbps));
    j.set("mean_latency_us", io::Json(v.mean_latency_us));
    j.set("p99_latency_us", io::Json(v.p99_latency_us));
    j.set("drop_rate", io::Json(v.drop_rate));
    j.set("throughput_disagreement", io::Json(v.throughput_disagreement));
    j.set("p99_disagreement", io::Json(v.p99_disagreement));
    return j;
}

} // namespace

io::Json
frontier_report_to_json(const FrontierReport& report)
{
    io::Json j;
    j.set("schema", io::Json(kFrontierReportSchema));
    j.set("strategy", io::Json(strategy_name(report.strategy)));
    j.set("seed", io::Json(io::u64_to_hex(report.seed)));

    io::Json objectives{io::JsonArray{}};
    for (const ObjectiveSpec& o : report.objectives) {
        io::Json obj;
        obj.set("name", io::Json(o.name));
        obj.set("sense", io::Json(o.sense == Sense::kMaximize ? "max"
                                                              : "min"));
        objectives.push_back(std::move(obj));
    }
    j.set("objectives", std::move(objectives));

    io::Json search;
    search.set("requests", io::Json(static_cast<double>(report.requests)));
    search.set("evaluated", io::Json(static_cast<double>(report.evaluated)));
    search.set("quarantined",
               io::Json(static_cast<double>(report.quarantined)));
    search.set("infeasible",
               io::Json(static_cast<double>(report.infeasible)));
    j.set("search", std::move(search));

    io::Json cache;
    cache.set("hits", io::Json(static_cast<double>(report.cache_hits)));
    cache.set("misses", io::Json(static_cast<double>(report.cache_misses)));
    // The memo never evicts; the key stays because the schema and the
    // perfbench frontier digest both hash it.
    cache.set("evictions", io::Json(0));
    j.set("cache", std::move(cache));

    io::Json frontier{io::JsonArray{}};
    for (std::size_t i = 0; i < report.frontier.size(); ++i) {
        const FrontierEntry& e = report.frontier[i];
        io::Json entry;
        entry.set("id", io::Json(io::u64_to_hex(e.id)));
        entry.set("key", io::Json(e.key));
        if (i < report.frontier_configs.size())
            entry.set("config", report.frontier_configs[i]);
        io::Json levels{io::JsonArray{}};
        for (std::uint32_t level : e.config)
            levels.push_back(io::Json(static_cast<double>(level)));
        entry.set("levels", std::move(levels));
        io::Json objs{io::JsonArray{}};
        for (std::size_t k = 0; k < e.objectives.size(); ++k) {
            io::Json o;
            o.set("name", io::Json(report.objectives[k].name));
            o.set("value", io::Json(e.objectives[k]));
            objs.push_back(std::move(o));
        }
        entry.set("objectives", std::move(objs));
        entry.set("dominated", io::Json(static_cast<double>(e.dominated)));
        entry.set("des_validated", io::Json(e.des_validated));
        if (e.des_validated)
            entry.set("des", des_to_json(e.des));
        frontier.push_back(std::move(entry));
    }
    j.set("frontier", std::move(frontier));
    return j;
}

std::string
render(const FrontierReport& report)
{
    std::string out;
    out += "design-space exploration (" + strategy_name(report.strategy)
           + ", seed " + io::u64_to_hex(report.seed) + ")\n";
    out += "  oracle requests " + std::to_string(report.requests)
           + ", unique configs " + std::to_string(report.evaluated)
           + ", cache hits " + std::to_string(report.cache_hits)
           + ", misses " + std::to_string(report.cache_misses) + "\n";
    out += "  quarantined " + std::to_string(report.quarantined)
           + ", infeasible " + std::to_string(report.infeasible) + "\n";
    out += "  Pareto frontier: " + std::to_string(report.frontier.size())
           + " configs\n";
    for (std::size_t i = 0; i < report.frontier.size(); ++i) {
        const FrontierEntry& e = report.frontier[i];
        out += "   [" + std::to_string(i) + "] "
               + io::u64_to_hex(e.id).substr(0, 10);
        for (std::size_t k = 0; k < e.objectives.size(); ++k)
            out += "  " + report.objectives[k].name + "="
                   + fmt(e.objectives[k]);
        out += "  dominates " + std::to_string(e.dominated);
        if (e.des_validated) {
            out += e.des.ok ? "  [des ok" : "  [des FAILED";
            if (e.des.ok)
                out += ", tput delta "
                       + fmt(100.0 * e.des.throughput_disagreement)
                       + "%, p99 delta "
                       + fmt(100.0 * e.des.p99_disagreement) + "%";
            out += "]";
        }
        out += "\n";
        if (i < report.frontier_configs.size())
            out += "       " + report.frontier_configs[i].dump(-1) + "\n";
    }
    return out;
}

} // namespace lognic::dse
