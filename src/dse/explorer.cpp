/**
 * @file
 * Design-space exploration engine: model-first scoring memoized in the
 * archive, seed-deterministic search strategies, and DES confirmation of
 * the frontier. See explorer.hpp for the determinism contract.
 */
#include "lognic/dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "lognic/core/model.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/runner/thread_pool.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::dse {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Counter-mode deterministic RNG over runner::derive_seed — platform
/// stable, and (being serial) independent of thread count.
class Rng {
  public:
    explicit Rng(std::uint64_t root) : root_(root) {}
    std::uint64_t next() { return runner::derive_seed(root_, counter_++); }
    std::size_t pick(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

  private:
    std::uint64_t root_;
    std::uint64_t counter_{0};
};

double
worst_p99_us(const core::Report& rep)
{
    double worst = 0.0;
    for (const auto& cls : rep.latency.per_class)
        worst = std::max(worst, cls.p99.micros());
    return worst;
}

double
metric_value(const std::string& name, const core::Report& rep, double cost)
{
    if (name == "capacity_gbps")
        return rep.throughput.capacity.gbps();
    if (name == "throughput_gbps")
        return rep.throughput.achieved.gbps();
    if (name == "mean_latency_us")
        return rep.latency.mean.micros();
    if (name == "p99_latency_us")
        return worst_p99_us(rep);
    if (name == "drop_rate")
        return rep.latency.max_drop_probability;
    if (name == "cost")
        return cost;
    throw std::invalid_argument(
        "dse: unknown metric '" + name
        + "' (capacity_gbps, throughput_gbps, mean_latency_us, "
          "p99_latency_us, drop_rate, cost)");
}

/**
 * Objective extraction, quarantine and constraint checks for one solved
 * config (the "constraint violated" why string is pinned by tests to the
 * round-trip double formatter).
 */
void
score_report(Evaluation& eval, const DesignSpace& space, const Config& c,
             const core::Report& rep,
             const std::vector<ObjectiveSpec>& objectives,
             const std::vector<Constraint>& constraints)
{
    const double cost = space.cost(c);
    for (const ObjectiveSpec& o : objectives)
        eval.objectives.push_back(metric_value(o.name, rep, cost));
    eval.finite = all_finite(eval.objectives);
    if (!eval.finite) {
        eval.feasible = false;
        eval.why = "non-finite objective value (quarantined)";
        return;
    }
    for (const Constraint& con : constraints) {
        const double v = metric_value(con.metric, rep, cost);
        if (std::isfinite(v) && v >= con.lower && v <= con.upper)
            continue;
        eval.feasible = false;
        eval.why = "constraint violated: " + con.metric + " = "
                   + io::format_double(v);
        break;
    }
}

void
validate_inputs(const DesignSpace& space,
                const std::vector<ObjectiveSpec>& objectives,
                const std::vector<Constraint>& constraints,
                const ExploreOptions& opts)
{
    if (space.size() == 0)
        throw std::invalid_argument("dse: design space has no knobs");
    if (objectives.empty())
        throw std::invalid_argument("dse: at least one objective required");
    for (std::size_t i = 0; i < objectives.size(); ++i) {
        objective_from_name(objectives[i].name); // known-name check
        for (std::size_t j = i + 1; j < objectives.size(); ++j)
            if (objectives[i].name == objectives[j].name)
                throw std::invalid_argument("dse: duplicate objective '"
                                            + objectives[i].name + "'");
    }
    for (const Constraint& c : constraints) {
        objective_from_name(c.metric); // known-name check
        if (c.lower > c.upper)
            throw std::invalid_argument("dse: constraint on '" + c.metric
                                        + "' has lower > upper");
        if (c.lower == -kInf && c.upper == kInf)
            throw std::invalid_argument("dse: constraint on '" + c.metric
                                        + "' sets neither lower nor upper");
    }
    if (opts.population == 0)
        throw std::invalid_argument("dse: population must be >= 1");
    if (opts.generations == 0)
        throw std::invalid_argument("dse: generations must be >= 1");
    if (opts.budget == 0)
        throw std::invalid_argument("dse: budget must be >= 1");
}

Config
random_config(const DesignSpace& space, Rng& rng)
{
    Config c(space.size());
    for (std::size_t k = 0; k < space.size(); ++k)
        c[k] = static_cast<std::uint32_t>(
            rng.pick(space.knob(k).values.size()));
    return c;
}

void
run_exhaustive(const DesignSpace& space, const ExploreOptions& opts,
               BatchEvaluator& ev)
{
    const std::uint64_t total = space.combinations();
    if (total > opts.exhaustive_limit)
        throw std::invalid_argument(
            "dse: exhaustive search over " + std::to_string(total)
            + " combinations exceeds the limit of "
            + std::to_string(opts.exhaustive_limit)
            + "; use the mutation or nsga2 strategy");
    std::vector<Config> batch;
    batch.reserve(static_cast<std::size_t>(total));
    Config c(space.size(), 0);
    for (std::uint64_t i = 0; i < total; ++i) {
        batch.push_back(c);
        // Mixed-radix odometer, last knob fastest.
        for (std::size_t k = space.size(); k-- > 0;) {
            if (++c[k] < space.knob(k).values.size())
                break;
            c[k] = 0;
        }
    }
    ev.run_batch(batch);
}

void
run_mutation(const DesignSpace& space, const ExploreOptions& opts,
             const std::vector<Sense>& senses, BatchEvaluator& ev)
{
    Rng rng(opts.seed);
    std::vector<Config> batch;
    for (std::size_t i = 0; i < opts.population; ++i)
        batch.push_back(random_config(space, rng));
    ev.run_batch(batch);

    std::vector<std::uint64_t> previous;
    std::size_t stale = 0;
    while (ev.requests() < opts.budget && stale < 3) {
        const auto archive = ev.archive_vector();
        const auto frontier = pareto_frontier(archive, senses);
        std::vector<std::uint64_t> ids;
        for (std::size_t idx : frontier)
            ids.push_back(archive[idx].id);
        stale = ids == previous ? stale + 1 : 0;
        previous = ids;
        if (stale >= 3)
            break;

        batch.clear();
        // Local mutation: every ±1-level neighbor of every frontier
        // member. Stable frontier members re-propose the same neighbors
        // round after round — the archive answers the repeats (that is
        // the asserted >0 hit count).
        for (std::size_t idx : frontier) {
            const Config& c = archive[idx].config;
            for (std::size_t k = 0; k < space.size(); ++k) {
                if (c[k] > 0) {
                    Config n = c;
                    --n[k];
                    batch.push_back(std::move(n));
                }
                if (c[k] + 1 < space.knob(k).values.size()) {
                    Config n = c;
                    ++n[k];
                    batch.push_back(std::move(n));
                }
            }
        }
        // Random immigrants keep the climb from stalling in a local
        // niche.
        const std::size_t immigrants =
            std::max<std::size_t>(1, opts.population / 2);
        for (std::size_t i = 0; i < immigrants; ++i)
            batch.push_back(random_config(space, rng));
        ev.run_batch(batch);
    }
}

void
run_nsga2(const DesignSpace& space, const ExploreOptions& opts,
          const std::vector<Sense>& senses, BatchEvaluator& ev)
{
    Rng rng(opts.seed);
    std::vector<Config> seed_batch;
    for (std::size_t i = 0; i < opts.population; ++i)
        seed_batch.push_back(random_config(space, rng));
    std::vector<ScoredConfig> pop = ev.run_batch(seed_batch);

    const auto rank_and_crowd =
        [&](const std::vector<ScoredConfig>& members,
            std::vector<std::size_t>& rank, std::vector<double>& crowd) {
            const std::size_t kUnranked =
                std::numeric_limits<std::size_t>::max();
            rank.assign(members.size(), kUnranked);
            crowd.assign(members.size(), 0.0);
            const auto fronts = non_dominated_sort(members, senses);
            for (std::size_t f = 0; f < fronts.size(); ++f) {
                const auto dist =
                    crowding_distance(fronts[f], members, senses);
                for (std::size_t i = 0; i < fronts[f].size(); ++i) {
                    rank[fronts[f][i]] = f;
                    crowd[fronts[f][i]] = dist[i];
                }
            }
        };

    for (std::size_t gen = 0; gen < opts.generations; ++gen) {
        if (ev.requests() >= opts.budget)
            break;
        std::vector<std::size_t> rank;
        std::vector<double> crowd;
        rank_and_crowd(pop, rank, crowd);
        const auto tournament = [&]() {
            const std::size_t a = rng.pick(pop.size());
            const std::size_t b = rng.pick(pop.size());
            if (rank[a] != rank[b])
                return rank[a] < rank[b] ? a : b;
            if (crowd[a] != crowd[b])
                return crowd[a] > crowd[b] ? a : b;
            return a < b ? a : b;
        };
        std::vector<Config> offspring;
        for (std::size_t j = 0; j < opts.population; ++j) {
            const std::size_t p1 = tournament();
            const std::size_t p2 = tournament();
            Config child(space.size());
            for (std::size_t k = 0; k < space.size(); ++k)
                child[k] = rng.next() % 2 == 0 ? pop[p1].config[k]
                                               : pop[p2].config[k];
            for (std::size_t k = 0; k < space.size(); ++k)
                if (rng.pick(space.size()) == 0)
                    child[k] = static_cast<std::uint32_t>(
                        rng.pick(space.knob(k).values.size()));
            offspring.push_back(std::move(child));
        }
        std::vector<ScoredConfig> scored_q = ev.run_batch(offspring);

        // Environmental selection over P u Q: fill whole fronts, break
        // the overflowing front by crowding (ties to lower index), and
        // pad with quarantined/infeasible members only when eligible ones
        // run out.
        std::vector<ScoredConfig> merged = pop;
        merged.insert(merged.end(), scored_q.begin(), scored_q.end());
        const auto fronts = non_dominated_sort(merged, senses);
        std::vector<ScoredConfig> next;
        std::vector<bool> taken(merged.size(), false);
        for (const auto& front : fronts) {
            if (next.size() >= opts.population)
                break;
            if (next.size() + front.size() <= opts.population) {
                for (std::size_t i : front) {
                    next.push_back(merged[i]);
                    taken[i] = true;
                }
                continue;
            }
            const auto dist = crowding_distance(front, merged, senses);
            std::vector<std::size_t> order(front.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (dist[a] != dist[b])
                              return dist[a] > dist[b];
                          return front[a] < front[b];
                      });
            for (std::size_t i : order) {
                if (next.size() >= opts.population)
                    break;
                next.push_back(merged[front[i]]);
                taken[front[i]] = true;
            }
        }
        for (std::size_t i = 0;
             i < merged.size() && next.size() < opts.population; ++i)
            if (!taken[i])
                next.push_back(merged[i]);
        pop = std::move(next);
    }
}

DesValidation
validate_with_des(const DesignSpace& space, const ScoredConfig& who,
                  const ExploreOptions& opts)
{
    DesValidation v;
    v.seed = runner::derive_seed(opts.seed, who.id);
    const io::Scenario sc = space.materialize(who.config);
    const core::Report model_rep =
        core::Model(sc.hw).estimate(sc.graph, sc.traffic);

    runner::Replicator rep(opts.des.replications, v.seed);
    const auto guarded = rep.run_guarded(
        [&](std::uint64_t seed) {
            sim::SimOptions so;
            so.duration = sim::SimTime{opts.des.duration};
            so.warmup_fraction = opts.des.warmup_fraction;
            so.seed = seed;
            return sim::NicSimulator(sc.hw, sc.graph, sc.traffic, so).run();
        },
        1 /* outer parallel_for already fans candidates out */);
    v.replications = guarded.stats.replications;
    v.ok = guarded.complete() && guarded.stats.replications > 0;
    if (!guarded.failed.empty())
        v.error = guarded.failed.front().error;
    v.delivered_gbps = guarded.stats.delivered_gbps.mean;
    v.mean_latency_us = guarded.stats.mean_latency_us.mean;
    v.p99_latency_us = guarded.stats.p99_latency_us.mean;
    v.drop_rate = guarded.stats.drop_rate.mean;

    const auto rel = [](double model, double des) {
        const double denom = std::max(std::fabs(des), 1e-9);
        return (model - des) / denom;
    };
    v.throughput_disagreement =
        rel(model_rep.throughput.achieved.gbps(), v.delivered_gbps);
    v.p99_disagreement = rel(worst_p99_us(model_rep), v.p99_latency_us);
    return v;
}

} // namespace

std::string
strategy_name(Strategy s)
{
    switch (s) {
    case Strategy::kExhaustive:
        return "exhaustive";
    case Strategy::kMutation:
        return "mutation";
    case Strategy::kNsga2:
        return "nsga2";
    }
    return "unknown";
}

Strategy
strategy_from_name(const std::string& name)
{
    if (name == "exhaustive")
        return Strategy::kExhaustive;
    if (name == "mutation")
        return Strategy::kMutation;
    if (name == "nsga2")
        return Strategy::kNsga2;
    throw std::invalid_argument("dse: unknown strategy '" + name
                                + "' (exhaustive, mutation, nsga2)");
}

ObjectiveSpec
objective_from_name(const std::string& name)
{
    if (name == "capacity_gbps" || name == "throughput_gbps")
        return ObjectiveSpec{name, Sense::kMaximize};
    if (name == "mean_latency_us" || name == "p99_latency_us"
        || name == "drop_rate" || name == "cost")
        return ObjectiveSpec{name, Sense::kMinimize};
    throw std::invalid_argument(
        "dse: unknown objective '" + name
        + "' (capacity_gbps, throughput_gbps, mean_latency_us, "
          "p99_latency_us, drop_rate, cost)");
}

Evaluation
evaluate_config(const DesignSpace& space, const Config& c,
                const std::vector<ObjectiveSpec>& objectives,
                const std::vector<Constraint>& constraints)
{
    Evaluation eval;
    try {
        io::Scenario sc = space.materialize(c);
        const core::Report rep =
            core::Model(std::move(sc.hw)).estimate(sc.graph, sc.traffic);
        score_report(eval, space, c, rep, objectives, constraints);
    } catch (const std::exception& e) {
        // A config the model rejects outright is quarantined like a
        // non-finite one: it carries no comparable objectives.
        eval.objectives.assign(objectives.size(), kNan);
        eval.finite = false;
        eval.feasible = false;
        eval.why = std::string("evaluation failed: ") + e.what();
    }
    return eval;
}

// --- BatchEvaluator -----------------------------------------------------------

BatchEvaluator::BatchEvaluator(const DesignSpace& space,
                               const std::vector<ObjectiveSpec>& objectives,
                               const std::vector<Constraint>& constraints,
                               const ExploreOptions& opts, Pruner* pruner)
    : space_(space), objectives_(objectives), constraints_(constraints),
      opts_(opts), pruner_(pruner)
{
}

std::vector<ScoredConfig>
BatchEvaluator::run_batch(const std::vector<Config>& batch)
{
    struct Pending {
        std::string key;
        Config config;
        Evaluation eval;
        bool resolved{false}; ///< replayed or pruned: no solve needed
    };
    std::vector<std::string> keys(batch.size());
    std::vector<Pending> pending;
    std::set<std::string> pending_keys;

    for (std::size_t i = 0; i < batch.size(); ++i) {
        keys[i] = space_.canonical_key(batch[i]);
        // This batch's configs reach the archive only after the loop, so
        // a repeat inside the batch is a miss.
        if (archive_.count(keys[i]) != 0) {
            ++hits_;
            continue;
        }
        ++misses_;
        if (!pending_keys.insert(keys[i]).second)
            continue; // duplicate within the batch: one solve
        Pending p;
        p.key = keys[i];
        p.config = batch[i];
        // A journaled outcome replaces the *work*, never the counters:
        // the miss is already counted, exactly as the uninterrupted run
        // counted it. Replays also bypass the pruner, which keeps
        // journals portable across prune modes.
        p.resolved = opts_.resume_eval && opts_.resume_eval(p.key, p.eval);
        if (!p.resolved && pruner_ != nullptr) {
            if (auto r = pruner_->reject(p.config)) {
                // Provably infeasible: synthesize the Evaluation the
                // frontier machinery needs without spending a solve.
                // Infeasible-but-finite with NaN objectives is safe —
                // ineligible candidates' objectives are never compared
                // or reported — and keeps the quarantined/infeasible
                // report counters identical to an unpruned run.
                p.eval.objectives.assign(objectives_.size(), kNan);
                p.eval.feasible = false;
                p.eval.finite = true;
                p.eval.pruned = true;
                p.eval.why = std::move(r->why);
                p.resolved = true;
                ++pruned_;
                if (opts_.on_eval)
                    opts_.on_eval(p.key, p.eval);
            }
        }
        pending.push_back(std::move(p));
    }

    std::vector<std::size_t> to_compute;
    for (std::size_t i = 0; i < pending.size(); ++i)
        if (!pending[i].resolved)
            to_compute.push_back(i);
    solves_ += to_compute.size();

    runner::parallel_for(
        to_compute.size(), opts_.threads, [&](std::size_t u) {
            Pending& p = pending[to_compute[u]];
            p.eval = evaluate_config(space_, p.config, objectives_,
                                     constraints_);
            if (opts_.on_eval)
                opts_.on_eval(p.key, p.eval);
        });
    for (Pending& p : pending) {
        ScoredConfig s;
        s.id = io::fnv1a64(p.key);
        s.key = p.key;
        s.config = std::move(p.config);
        s.objectives = std::move(p.eval.objectives);
        s.feasible = p.eval.feasible;
        s.finite = p.eval.finite;
        s.pruned = p.eval.pruned;
        s.why = std::move(p.eval.why);
        archive_.emplace(std::move(p.key), std::move(s));
    }

    // Knob levels are strictly increasing, so a key names one config.
    std::vector<ScoredConfig> out;
    out.reserve(batch.size());
    for (const std::string& key : keys)
        out.push_back(archive_.at(key));
    return out;
}

std::vector<ScoredConfig>
BatchEvaluator::archive_vector() const
{
    std::vector<ScoredConfig> out;
    out.reserve(archive_.size());
    for (const auto& [key, scored] : archive_)
        out.push_back(scored);
    return out;
}

FrontierReport
explore(const DesignSpace& space,
        const std::vector<ObjectiveSpec>& objectives,
        const std::vector<Constraint>& constraints,
        const ExploreOptions& opts, obs::MetricsRegistry* metrics)
{
    validate_inputs(space, objectives, constraints, opts);
    std::vector<Sense> senses;
    for (const ObjectiveSpec& o : objectives)
        senses.push_back(o.sense);

    std::optional<Pruner> pruner;
    if (opts.prune != PruneMode::kOff) {
        pruner.emplace(space, constraints);
        if (opts.prune == PruneMode::kExplain && opts.prune_log)
            opts.prune_log(pruner->explain());
    }

    BatchEvaluator ev(space, objectives, constraints, opts,
                      pruner ? &*pruner : nullptr);
    switch (opts.strategy) {
    case Strategy::kExhaustive:
        run_exhaustive(space, opts, ev);
        break;
    case Strategy::kMutation:
        run_mutation(space, opts, senses, ev);
        break;
    case Strategy::kNsga2:
        run_nsga2(space, opts, senses, ev);
        break;
    }

    const std::vector<ScoredConfig> archive = ev.archive_vector();
    // One best-first scan yields the frontier and each member's dominated
    // count.
    const DominanceSummary dom = dominance_summary(archive, senses);
    const std::vector<std::size_t>& frontier = dom.frontier;

    FrontierReport report;
    report.strategy = opts.strategy;
    report.seed = opts.seed;
    report.objectives = objectives;
    report.requests = ev.requests();
    report.evaluated = ev.archive_size();
    report.cache_hits = ev.hits();
    report.cache_misses = ev.misses();
    for (const ScoredConfig& s : archive) {
        if (!s.finite)
            ++report.quarantined;
        else if (!s.feasible)
            ++report.infeasible;
        // Archive flags, not live Pruner counters: journal replay
        // preserves them, so the count is resume-deterministic.
        if (s.pruned)
            ++report.pruned;
    }
    report.pruned_levels = pruner ? pruner->stats().levels_removed : 0;
    report.solves = ev.solves();
    report.frontier.resize(frontier.size());
    runner::parallel_for(
        frontier.size(), opts.threads, [&](std::size_t i) {
            const ScoredConfig& who = archive[frontier[i]];
            FrontierEntry entry;
            entry.id = who.id;
            entry.key = who.key;
            entry.config = who.config;
            entry.objectives = who.objectives;
            entry.dominated = dom.dominated[i];
            if (opts.des.enabled && opts.des.replications > 0) {
                entry.des_validated = true;
                if (!opts.resume_des
                    || !opts.resume_des(who.key, entry.des)) {
                    entry.des = validate_with_des(space, who, opts);
                    if (opts.on_des)
                        opts.on_des(who.key, entry.des);
                }
            }
            report.frontier[i] = std::move(entry);
        });
    for (const FrontierEntry& entry : report.frontier)
        report.frontier_configs.push_back(space.config_json(entry.config));

    if (metrics != nullptr) {
        metrics->counter("dse.requests").add(report.requests);
        metrics->counter("dse.evaluations").add(report.evaluated);
        metrics->counter("dse.cache.hits").add(report.cache_hits);
        metrics->counter("dse.cache.misses").add(report.cache_misses);
        metrics->counter("dse.quarantined").add(report.quarantined);
        metrics->counter("dse.infeasible").add(report.infeasible);
        // Separate channels: the report JSON counters above are prune-
        // mode invariant; pruning accounting lives here.
        metrics->counter("dse.pruned.evals").add(report.pruned);
        metrics->counter("dse.pruned.levels").add(report.pruned_levels);
        metrics->counter("dse.solves").add(report.solves);
        metrics->counter("dse.frontier.size").add(report.frontier.size());
        std::uint64_t validated = 0;
        for (const FrontierEntry& entry : report.frontier)
            if (entry.des_validated)
                ++validated;
        metrics->counter("dse.des.validated").add(validated);
    }
    return report;
}

} // namespace lognic::dse
