/**
 * @file
 * The design-space exploration engine (lognic::dse).
 *
 * Model-first / DES-confirm pipeline: every candidate config is scored
 * with the analytical model (microseconds per solve), and only the
 * surviving Pareto frontier is promoted to packet-level DES validation
 * via runner::Replicator, recording the model-vs-DES disagreement per
 * candidate. Three seed-deterministic strategies:
 *
 *   kExhaustive  full grid; refuses spaces above exhaustive_limit
 *   kMutation    random immigrants + local ±1-level mutation of the
 *                incumbent frontier (hill climbing; mutated neighbors
 *                revisit configs, which the archive answers unsolved)
 *   kNsga2       NSGA-II-style evolutionary search: non-dominated
 *                sorting + crowding, binary tournaments, uniform
 *                crossover, 1/n-per-knob mutation
 *
 * Determinism discipline (same as calib/check/runner): candidate batches
 * are generated serially from runner::derive_seed chains, evaluated in
 * parallel with results keyed by batch index, and reduced in index
 * order; DES seeds are pure functions of the candidate fingerprint. The
 * FrontierReport is byte-identical at any --threads value, and — through
 * the resume/record seams an ExploreJournal plugs into — byte-identical
 * across a SIGKILL/resume cycle too.
 */
#ifndef LOGNIC_DSE_EXPLORER_HPP_
#define LOGNIC_DSE_EXPLORER_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "lognic/dse/design_space.hpp"
#include "lognic/dse/pareto.hpp"
#include "lognic/dse/prune.hpp"
#include "lognic/io/json.hpp"
#include "lognic/obs/metrics.hpp"

namespace lognic::dse {

enum class Strategy { kExhaustive, kMutation, kNsga2 };

std::string strategy_name(Strategy s);
/// @throws std::invalid_argument on unknown names.
Strategy strategy_from_name(const std::string& name);

/**
 * One objective by built-in name; the sense is a property of the metric:
 *
 *   capacity_gbps    max   dist-weighted attainable throughput
 *   throughput_gbps  max   achieved throughput under the offered load
 *   mean_latency_us  min   dist-weighted mean latency
 *   p99_latency_us   min   worst per-class p99 (conservative tail)
 *   drop_rate        min   worst per-vertex drop probability
 *   cost             min   DesignSpace::cost (knob cost_weight sum)
 */
struct ObjectiveSpec {
    std::string name;
    Sense sense{Sense::kMinimize};
};

/// @throws std::invalid_argument on unknown metric names.
ObjectiveSpec objective_from_name(const std::string& name);

// Constraint lives in prune.hpp (the pruner narrows domains against it);
// it is re-exported here for source compatibility.

/// Model-oracle outcome for one config: the ExploreJournal record, whose
/// fields the archive's ScoredConfig carries.
struct Evaluation {
    std::vector<double> objectives; ///< aligned with the objective specs
    bool feasible{true};
    bool finite{true};
    /**
     * True when the feasibility pruner proved a constraint violation
     * without a model solve. Pruned evaluations are infeasible-but-finite
     * (never quarantined) and carry NaN objectives; both are safe because
     * an infeasible candidate's objectives are never compared or
     * reported. The flag survives journal round-trips so resumed runs
     * count pruned work identically.
     */
    bool pruned{false};
    std::string why; ///< violated constraint or evaluation failure
};

/// DES validation outcome for one frontier candidate.
struct DesValidation {
    bool ok{false};
    std::string error; ///< first replication failure when !ok
    std::uint64_t seed{0};
    std::uint64_t replications{0};
    double delivered_gbps{0.0};
    double mean_latency_us{0.0};
    double p99_latency_us{0.0};
    double drop_rate{0.0};
    /// Relative model-vs-DES disagreement: (model - des) / des.
    double throughput_disagreement{0.0};
    double p99_disagreement{0.0};
};

/// Resume seams (wired by ExploreJournal / supervise_exploration). Keys
/// are canonical config strings.
using EvalLookup = std::function<bool(const std::string& key, Evaluation&)>;
using EvalHook =
    std::function<void(const std::string& key, const Evaluation&)>;
using DesLookup =
    std::function<bool(const std::string& key, DesValidation&)>;
using DesHook =
    std::function<void(const std::string& key, const DesValidation&)>;

struct DesOptions {
    bool enabled{true};
    std::size_t replications{3};
    double duration{0.01};
    double warmup_fraction{0.2};
};

struct ExploreOptions {
    Strategy strategy{Strategy::kExhaustive};
    std::uint64_t seed{42};
    std::size_t threads{1};
    /// Model-oracle request budget for kMutation/kNsga2 (a search stops
    /// before starting a batch once requests reach it).
    std::size_t budget{256};
    std::size_t population{16};
    std::size_t generations{8};
    /// kExhaustive refuses spaces with more combinations than this.
    std::uint64_t exhaustive_limit{1u << 16};
    /**
     * Feasibility pruning (prune.hpp). kOn skips the model solve for
     * configs a Pruner proves infeasible; such configs still flow through
     * the serial batch coordinator as recorded misses with a synthesized
     * infeasible Evaluation, so requests/evaluated/infeasible/hit/miss
     * counters — and the whole FrontierReport JSON — are byte-identical
     * to a kOff run. kExplain additionally narrates the derived domains
     * through prune_log.
     */
    PruneMode prune{PruneMode::kOn};
    /// Sink for --prune=explain narration (one multi-line message).
    std::function<void(const std::string&)> prune_log{};
    DesOptions des{};
    EvalLookup resume_eval{};
    EvalHook on_eval{};
    DesLookup resume_des{};
    DesHook on_des{};
};

/// One frontier member of the report.
struct FrontierEntry {
    std::uint64_t id{0};   ///< canonical fingerprint
    std::string key;       ///< canonical config string
    Config config;
    std::vector<double> objectives;
    /// Evaluated candidates this entry dominates.
    std::uint64_t dominated{0};
    bool des_validated{false};
    DesValidation des;
};

struct FrontierReport {
    Strategy strategy{Strategy::kExhaustive};
    std::uint64_t seed{0};
    std::vector<ObjectiveSpec> objectives;
    std::uint64_t requests{0};    ///< model-oracle requests (hits + misses)
    std::uint64_t evaluated{0};   ///< unique configs scored
    std::uint64_t quarantined{0}; ///< NaN/inf or failed evaluations
    std::uint64_t infeasible{0};  ///< constraint violations
    std::uint64_t cache_hits{0};   ///< requests scored in an earlier batch
    std::uint64_t cache_misses{0}; ///< the other requests
    /**
     * Pruning/solve accounting — deliberately NOT serialized into the
     * report JSON, which stays byte-identical across prune modes. They
     * surface through the dse.pruned.* metrics channels instead.
     */
    std::uint64_t pruned{0};        ///< infeasible proven without a solve
    std::uint64_t pruned_levels{0}; ///< knob levels dead after narrowing
    std::uint64_t solves{0};        ///< model solves actually performed
    std::vector<FrontierEntry> frontier;
    /// {"knob name": level value} per frontier entry, same order.
    std::vector<io::Json> frontier_configs;
};

/**
 * Run the exploration. @throws std::invalid_argument on an empty space,
 * empty/unknown/duplicate objectives, a constraint on an unknown metric,
 * with lower > upper, or with neither bound set, or an exhaustive run
 * over a space above exhaustive_limit. When @p metrics is non-null,
 * publishes dse.* counters (cache hits/misses, evaluations,
 * frontier size, quarantined, infeasible, DES validations).
 */
FrontierReport explore(const DesignSpace& space,
                       const std::vector<ObjectiveSpec>& objectives,
                       const std::vector<Constraint>& constraints,
                       const ExploreOptions& opts,
                       obs::MetricsRegistry* metrics = nullptr);

/// Model-oracle scoring of one config — pure in (space, config,
/// objectives, constraints); the unit the archive and ExploreJournal key
/// by canonical config string.
Evaluation evaluate_config(const DesignSpace& space, const Config& c,
                           const std::vector<ObjectiveSpec>& objectives,
                           const std::vector<Constraint>& constraints);

/**
 * The serial batch coordinator the strategies feed. Archive lookups,
 * journal replay decisions, prune rejections, and archive inserts all
 * happen on the caller thread in batch order, so hit/miss counters are
 * a pure function of the candidate stream; only the model
 * solves for first-seen configs fan out to the thread pool, each one an
 * evaluate_config call keyed by its index, so the thread count cannot
 * perturb results. Public so tests and the benchmark can drive batches —
 * and count solves — directly; explore() remains the normal entry point.
 */
class BatchEvaluator {
  public:
    /// @p pruner may be null (no pruning); it must outlive the evaluator.
    BatchEvaluator(const DesignSpace& space,
                   const std::vector<ObjectiveSpec>& objectives,
                   const std::vector<Constraint>& constraints,
                   const ExploreOptions& opts, Pruner* pruner = nullptr);

    /// Score @p batch into the archive; duplicates within the batch cost
    /// one solve.
    void run_batch(const std::vector<Config>& batch);

    /// run_batch(), then each request's score by batch index.
    std::vector<ScoredConfig> scored_batch(const std::vector<Config>& batch);

    /// Every unique scored config, in the order they were first scored.
    const std::vector<ScoredConfig>& archive() const { return archive_; }

    std::uint64_t requests() const { return hits_ + misses_; }
    /// Requests whose config an earlier batch scored.
    std::uint64_t hits() const { return hits_; }
    /// The other requests, a repeat inside one batch included.
    std::uint64_t misses() const { return misses_; }
    std::size_t archive_size() const { return archive_.size(); }
    /// Model solves actually performed (misses minus replays and prunes).
    std::uint64_t solves() const { return solves_; }
    /// Misses resolved by the pruner without a solve.
    std::uint64_t pruned() const { return pruned_; }

  private:
    const DesignSpace& space_;
    const std::vector<ObjectiveSpec>& objectives_;
    const std::vector<Constraint>& constraints_;
    const ExploreOptions& opts_;
    Pruner* pruner_;
    /// Scores @p batch; when @p at is non-null, it receives each request's
    /// archive position by batch index.
    void score(const std::vector<Config>& batch, std::vector<std::size_t>* at);

    /// The memo: every scored config, and its position by canonical config
    /// string; touched only by the coordinator.
    std::vector<ScoredConfig> archive_;
    std::unordered_map<std::string, std::size_t> position_;
    std::uint64_t hits_{0};
    std::uint64_t misses_{0};
    std::uint64_t solves_{0};
    std::uint64_t pruned_{0};
};

} // namespace lognic::dse

#endif // LOGNIC_DSE_EXPLORER_HPP_
