/**
 * @file
 * Feasibility pruning: structural bound derivation, fixpoint domain
 * narrowing, and per-config provable rejection. See prune.hpp for the
 * soundness contract.
 */
#include "lognic/dse/prune.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lognic/io/json.hpp"

namespace lognic::dse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool
is_throughput_metric(const std::string& metric)
{
    return metric == "capacity_gbps" || metric == "throughput_gbps";
}

std::string
violated(const std::string& metric, double value, bool exact)
{
    // exact: `value` IS the metric the oracle would compute; otherwise it
    // is a proven upper bound on it.
    return std::string("pruned: constraint violated: ") + metric
        + (exact ? " = " : " <= ") + io::format_double(value);
}

} // namespace

std::string
prune_mode_name(PruneMode m)
{
    switch (m) {
    case PruneMode::kOff:
        return "off";
    case PruneMode::kOn:
        return "on";
    case PruneMode::kExplain:
        return "explain";
    }
    return "unknown";
}

PruneMode
prune_mode_from_name(const std::string& name)
{
    if (name == "off")
        return PruneMode::kOff;
    if (name == "on")
        return PruneMode::kOn;
    if (name == "explain")
        return PruneMode::kExplain;
    throw std::invalid_argument("dse: unknown prune mode '" + name
                                + "' (off, on, explain)");
}

Pruner::Pruner(const DesignSpace& space,
               const std::vector<Constraint>& constraints)
    : space_(space), constraints_(constraints)
{
    removed_why_.resize(space_.size());
    for (std::size_t k = 0; k < space_.size(); ++k)
        removed_why_[k].resize(space_.knob(k).values.size());

    paths_recognized_ = true;
    for (std::size_t k = 0; k < space_.size(); ++k) {
        const Knob& knob = space_.knob(k);
        if (knob.rebuilds_scenario) {
            if (knob.kind == KnobKind::kPlacement && rebuild_knob_ < 0)
                rebuild_knob_ = static_cast<int>(k);
            else
                paths_recognized_ = false; // custom/second rebuild axis
            continue;
        }
        if (knob.kind == KnobKind::kCustom)
            paths_recognized_ = false;
        if (knob.kind == KnobKind::kTraffic)
            traffic_knob_ = static_cast<int>(k);
    }

    const auto& classes = space_.base().traffic.classes();
    single_class_ = classes.size() == 1 && classes[0].weight == 1.0;

    if (traffic_knob_ >= 0) {
        // Read the offered rate back through the knob's own apply() so
        // the tabled Bandwidth is the bit pattern the oracle sees.
        const Knob& tk = space_.knob(static_cast<std::size_t>(traffic_knob_));
        for (double level : tk.values) {
            io::Scenario sc = space_.base();
            tk.apply(sc, level);
            offered_by_level_.push_back(sc.traffic.ingress_bandwidth());
        }
    } else {
        offered_const_ = space_.base().traffic.ingress_bandwidth();
    }

    build_term_tables();
    narrow_domains();
}

void
Pruner::build_term_tables()
{
    const std::size_t nstrata = rebuild_knob_ < 0
        ? 1
        : space_.knob(static_cast<std::size_t>(rebuild_knob_)).values.size();
    strata_.resize(nstrata);
    if (!single_class_ || !paths_recognized_)
        return; // every stratum stays opaque: cost-only pruning

    using TermKey = std::pair<int, std::string>;
    for (std::size_t s = 0; s < nstrata; ++s) {
        Stratum st;
        try {
            Config ref(space_.size(), 0);
            if (rebuild_knob_ >= 0)
                ref[static_cast<std::size_t>(rebuild_knob_)] =
                    static_cast<std::uint32_t>(s);
            const io::Scenario sc0 = space_.materialize(ref);
            const core::ThroughputEstimate est0 =
                core::estimate_throughput(sc0.graph, sc0.hw, sc0.traffic);

            // Structural dependence: which knobs can move which terms.
            std::map<TermKey, std::vector<std::size_t>> deps;
            for (std::size_t k = 0; k < space_.size(); ++k) {
                if (static_cast<int>(k) == rebuild_knob_)
                    continue;
                const Knob& knob = space_.knob(k);
                switch (knob.kind) {
                  case KnobKind::kVertexParallelism: {
                    const auto id = sc0.graph.find_vertex(knob.target);
                    if (!id)
                        throw std::runtime_error("vertex missing");
                    const auto kind =
                        sc0.graph.vertex(*id).kind
                                == core::VertexKind::kRateLimiter
                        ? core::TermKind::kRateLimit
                        : core::TermKind::kIpCompute;
                    deps[{static_cast<int>(kind), knob.target}].push_back(k);
                    break;
                  }
                  case KnobKind::kIpCatalog:
                    for (core::VertexId v = 0; v < sc0.graph.vertex_count();
                         ++v) {
                        const core::Vertex& vx = sc0.graph.vertex(v);
                        if (vx.kind == core::VertexKind::kIp
                            && sc0.hw.ip(vx.ip).name == knob.target)
                            deps[{static_cast<int>(
                                      core::TermKind::kIpCompute),
                                  vx.name}]
                                .push_back(k);
                    }
                    break;
                  case KnobKind::kLineRate:
                    deps[{static_cast<int>(core::TermKind::kLineRate),
                          "ingress/egress"}]
                        .push_back(k);
                    break;
                  case KnobKind::kInterface:
                    deps[{static_cast<int>(core::TermKind::kInterface),
                          "interface"}]
                        .push_back(k);
                    break;
                  case KnobKind::kMemory:
                    deps[{static_cast<int>(core::TermKind::kMemory),
                          "memory"}]
                        .push_back(k);
                    break;
                  default:
                    break; // traffic / queue / overhead: no throughput term
                }
            }

            // One sweep per dependent knob: re-run the model's own term
            // construction at each level (others pinned at the reference)
            // and read the term values back. Terms are independent across
            // knobs, so the single-knob sweep is exact at any setting of
            // the others.
            std::map<std::size_t, std::vector<std::map<TermKey, Bandwidth>>>
                sweeps;
            for (const auto& [key, knobs] : deps) {
                (void)key;
                for (std::size_t k : knobs) {
                    if (sweeps.count(k) != 0)
                        continue;
                    const Knob& knob = space_.knob(k);
                    auto& levels = sweeps[k];
                    for (double level : knob.values) {
                        io::Scenario scl = sc0;
                        knob.apply(scl, level);
                        const auto estl = core::estimate_throughput(
                            scl.graph, scl.hw, scl.traffic);
                        std::map<TermKey, Bandwidth> by_key;
                        for (const auto& t : estl.terms)
                            by_key.emplace(
                                TermKey{static_cast<int>(t.kind), t.name},
                                t.limit);
                        levels.push_back(std::move(by_key));
                    }
                }
            }

            st.terms_ok = true;
            st.complete = true;
            for (const auto& t : est0.terms) {
                const TermKey key{static_cast<int>(t.kind), t.name};
                const auto dit = deps.find(key);
                if (dit == deps.end() || dit->second.empty()) {
                    TermBound tb;
                    tb.kind = t.kind;
                    tb.name = t.name;
                    tb.constant = t.limit;
                    st.terms.push_back(std::move(tb));
                    continue;
                }
                if (dit->second.size() > 1) {
                    // Two knobs move this term jointly; no single-knob
                    // table is exact. The term drops out of the min(),
                    // which only weakens the bound.
                    st.complete = false;
                    continue;
                }
                const std::size_t k = dit->second.front();
                TermBound tb;
                tb.kind = t.kind;
                tb.name = t.name;
                tb.knob = static_cast<int>(k);
                for (const auto& by_key : sweeps.at(k))
                    tb.by_level.push_back(by_key.at(key));
                st.terms.push_back(std::move(tb));
            }
        } catch (const std::exception&) {
            // A stratum whose skeleton the model rejects stays opaque:
            // the real oracle would quarantine its configs, which the
            // pruner must never preempt.
            st = Stratum{};
        }
        strata_[s] = std::move(st);
    }
}

const Pruner::Stratum&
Pruner::stratum_of(const Config& c) const
{
    if (rebuild_knob_ < 0)
        return strata_.front();
    return strata_.at(c[static_cast<std::size_t>(rebuild_knob_)]);
}

std::optional<Bandwidth>
Pruner::capacity_bound(const Config& c) const
{
    const Stratum& st = stratum_of(c);
    if (!st.terms_ok || st.terms.empty())
        return std::nullopt;
    Bandwidth m = st.terms.front().at(c);
    for (std::size_t i = 1; i < st.terms.size(); ++i)
        m = std::min(m, st.terms[i].at(c));
    return m;
}

Bandwidth
Pruner::offered(const Config& c) const
{
    if (traffic_knob_ < 0)
        return offered_const_;
    return offered_by_level_.at(c[static_cast<std::size_t>(traffic_knob_)]);
}

bool
Pruner::level_alive(std::size_t knob, std::size_t level) const
{
    return removed_why_[knob][level].empty();
}

bool
Pruner::level_removed(std::size_t knob, std::uint32_t level) const
{
    return !removed_why_.at(knob).at(level).empty();
}

std::optional<PruneReason>
Pruner::reject(const Config& c)
{
    space_.validate(c);
    for (const Constraint& con : constraints_) {
        if (con.metric == "cost") {
            // DesignSpace::cost is what the oracle feeds the constraint
            // check — same summation order, bit-identical double.
            const double v = space_.cost(c);
            if (std::isfinite(v) && (v < con.lower || v > con.upper)) {
                ++stats_.rejected;
                return PruneReason{con.metric, v, true,
                                   violated(con.metric, v, true)};
            }
            continue;
        }
        if (!is_throughput_metric(con.metric))
            continue; // latency / drop-rate bounds need a solve
        const auto cap = capacity_bound(c);
        if (!cap)
            continue;
        const Stratum& st = stratum_of(c);
        Bandwidth bound = *cap;
        if (con.metric == "throughput_gbps")
            bound = std::min(bound, offered(c));
        const double v = bound.gbps();
        if (!std::isfinite(v))
            continue;
        if (v < con.lower) {
            // Real metric <= v < lower; exact when the term set is
            // complete (v IS the metric then).
            ++stats_.rejected;
            return PruneReason{con.metric, v, st.complete,
                               violated(con.metric, v, st.complete)};
        }
        if (st.complete && v > con.upper) {
            ++stats_.rejected;
            return PruneReason{con.metric, v, true,
                               violated(con.metric, v, true)};
        }
    }
    ++stats_.admitted;
    return std::nullopt;
}

void
Pruner::narrow_domains()
{
    const std::size_t n = space_.size();
    const auto surviving = [&](std::size_t k) {
        std::vector<std::size_t> out;
        for (std::size_t l = 0; l < removed_why_[k].size(); ++l)
            if (level_alive(k, l))
                out.push_back(l);
        return out;
    };
    const auto remove = [&](std::size_t k, std::size_t l, std::string why) {
        removed_why_[k][l] = std::move(why);
    };

    // Capacity/throughput bound over the subspace {c_k = l} of stratum s:
    // per term, the level value for knob k, the max over surviving levels
    // for other tabled knobs, constants as-is.
    const auto subspace_bound = [&](std::size_t s, std::size_t k,
                                    std::size_t l, bool use_offered,
                                    bool maximize) -> std::optional<double> {
        const Stratum& st = strata_[s];
        if (!st.terms_ok || st.terms.empty())
            return std::nullopt;
        if (!maximize && !st.complete)
            return std::nullopt; // a true lower bound needs every term
        std::optional<Bandwidth> m;
        const auto fold = [&](Bandwidth b) {
            m = m ? std::min(*m, b) : b;
        };
        for (const TermBound& t : st.terms) {
            if (t.knob < 0) {
                fold(t.constant);
                continue;
            }
            const auto tk = static_cast<std::size_t>(t.knob);
            if (tk == k) {
                fold(t.by_level[l]);
                continue;
            }
            std::optional<Bandwidth> ext;
            for (std::size_t tl : surviving(tk)) {
                const Bandwidth b = t.by_level[tl];
                if (!ext || (maximize ? b > *ext : b < *ext))
                    ext = b;
            }
            if (!ext)
                return std::nullopt; // knob emptied; nothing to prove
            fold(*ext);
        }
        if (use_offered) {
            if (traffic_knob_ < 0) {
                fold(offered_const_);
            } else if (static_cast<std::size_t>(traffic_knob_) == k) {
                fold(offered_by_level_[l]);
            } else {
                std::optional<Bandwidth> ext;
                for (std::size_t tl :
                     surviving(static_cast<std::size_t>(traffic_knob_))) {
                    const Bandwidth b = offered_by_level_[tl];
                    if (!ext || (maximize ? b > *ext : b < *ext))
                        ext = b;
                }
                if (!ext)
                    return std::nullopt;
                fold(*ext);
            }
        }
        if (!m)
            return std::nullopt;
        return m->gbps();
    };

    bool changed = true;
    while (changed && stats_.fixpoint_rounds < 64) {
        changed = false;
        ++stats_.fixpoint_rounds;
        for (const Constraint& con : constraints_) {
            if (con.metric == "cost") {
                // Separable interval pass: each level plus the extreme
                // contributions of every other knob.
                std::vector<double> mins(n, 0.0), maxs(n, 0.0);
                bool empty = false;
                for (std::size_t k = 0; k < n; ++k) {
                    const Knob& knob = space_.knob(k);
                    double mn = kInf, mx = -kInf;
                    for (std::size_t l : surviving(k)) {
                        const double v = knob.values[l] * knob.cost_weight;
                        mn = std::min(mn, v);
                        mx = std::max(mx, v);
                    }
                    if (mn > mx) {
                        empty = true;
                        break;
                    }
                    mins[k] = mn;
                    maxs[k] = mx;
                }
                if (empty)
                    continue;
                double sum_min = 0.0, sum_max = 0.0;
                for (std::size_t k = 0; k < n; ++k) {
                    sum_min += mins[k];
                    sum_max += maxs[k];
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const Knob& knob = space_.knob(k);
                    for (std::size_t l : surviving(k)) {
                        const double v = knob.values[l] * knob.cost_weight;
                        const double lb = v + (sum_min - mins[k]);
                        const double ub = v + (sum_max - maxs[k]);
                        if (lb > con.upper) {
                            remove(k, l,
                                   "cost >= " + io::format_double(lb)
                                       + " > upper bound "
                                       + io::format_double(con.upper));
                            changed = true;
                        } else if (ub < con.lower) {
                            remove(k, l,
                                   "cost <= " + io::format_double(ub)
                                       + " < lower bound "
                                       + io::format_double(con.lower));
                            changed = true;
                        }
                    }
                }
                continue;
            }
            if (!is_throughput_metric(con.metric))
                continue;
            const bool use_offered = con.metric == "throughput_gbps";
            const auto strata_alive = [&]() {
                std::vector<std::size_t> out;
                if (rebuild_knob_ < 0) {
                    out.push_back(0);
                    return out;
                }
                return surviving(static_cast<std::size_t>(rebuild_knob_));
            };
            for (std::size_t k = 0; k < n; ++k) {
                const bool is_rebuild =
                    static_cast<int>(k) == rebuild_knob_;
                for (std::size_t l : surviving(k)) {
                    // A cell dies only when provably infeasible in every
                    // surviving stratum it can appear in.
                    bool all_upper = true, all_lower = true;
                    bool any = false;
                    double worst_ub = -kInf, worst_lb = kInf;
                    for (std::size_t s : strata_alive()) {
                        if (is_rebuild && s != l)
                            continue;
                        any = true;
                        const auto ub =
                            subspace_bound(s, k, l, use_offered, true);
                        if (!ub || !(*ub < con.lower))
                            all_upper = false;
                        else
                            worst_ub = std::max(worst_ub, *ub);
                        const auto lb = subspace_bound(s, k, l, use_offered,
                                                       false);
                        if (!lb || !(*lb > con.upper))
                            all_lower = false;
                        else
                            worst_lb = std::min(worst_lb, *lb);
                    }
                    if (!any)
                        continue;
                    if (all_upper) {
                        remove(k, l,
                               con.metric + " <= "
                                   + io::format_double(worst_ub)
                                   + " < lower bound "
                                   + io::format_double(con.lower));
                        changed = true;
                    } else if (all_lower) {
                        remove(k, l,
                               con.metric + " >= "
                                   + io::format_double(worst_lb)
                                   + " > upper bound "
                                   + io::format_double(con.upper));
                        changed = true;
                    }
                }
            }
        }
    }

    stats_.levels_removed = 0;
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < removed_why_[k].size(); ++l)
            if (!level_alive(k, l))
                ++stats_.levels_removed;
}

std::string
Pruner::explain() const
{
    std::ostringstream os;
    os << "prune: " << constraints_.size() << " constraint(s) over "
       << space_.size() << " knob(s), " << strata_.size() << " stratum(-a), "
       << stats_.levels_removed << " level(s) removed in "
       << stats_.fixpoint_rounds << " fixpoint round(s)\n";
    for (const Constraint& con : constraints_) {
        os << "  constraint " << con.metric << " in ["
           << io::format_double(con.lower) << ", "
           << io::format_double(con.upper) << "]";
        if (con.metric == "cost")
            os << " (separable: exact)";
        else if (is_throughput_metric(con.metric))
            os << " (term tables"
               << (con.metric == "throughput_gbps" ? " + offered rate"
                                                   : "")
               << ")";
        else
            os << " (needs a solve; never pruned)";
        os << "\n";
    }
    for (std::size_t s = 0; s < strata_.size(); ++s) {
        const Stratum& st = strata_[s];
        os << "  stratum " << s << ": "
           << (st.terms_ok
                   ? (st.complete ? "all terms bounded"
                                  : "partially bounded (one-sided)")
                   : "opaque (cost-only pruning)");
        if (st.terms_ok) {
            os << ", " << st.terms.size() << " term(s):";
            for (const TermBound& t : st.terms) {
                os << " " << core::to_string(t.kind) << "[" << t.name << "]";
                if (t.knob >= 0)
                    os << "<-"
                       << space_.knob(static_cast<std::size_t>(t.knob)).name;
            }
        }
        os << "\n";
    }
    for (std::size_t k = 0; k < space_.size(); ++k) {
        const Knob& knob = space_.knob(k);
        std::size_t alive = 0;
        for (std::size_t l = 0; l < knob.values.size(); ++l)
            if (level_alive(k, l))
                ++alive;
        os << "  knob " << knob.name << ": " << alive << "/"
           << knob.values.size() << " level(s) survive\n";
        for (std::size_t l = 0; l < knob.values.size(); ++l)
            if (!level_alive(k, l))
                os << "    level " << io::format_double(knob.values[l])
                   << " removed: " << removed_why_[k][l] << "\n";
    }
    return os.str();
}

} // namespace lognic::dse
