/**
 * @file
 * Feasibility pruning for the design-space explorer (lognic::dse).
 *
 * A Pruner derives, from the declared knob domains and the materialized
 * scenario skeleton, structural bounds on the model's metrics that can be
 * computed *without a model solve*:
 *
 *   cost             exactly separable: sum(level * cost_weight)
 *   capacity_gbps    Eq. 4 is a min() of per-entity terms, and — for
 *                    single-class traffic with built-in knobs only —
 *                    every term depends on at most one knob (a vertex's
 *                    attainable rate on its parallelism / its IP's
 *                    catalog entry, the shared interface / memory /
 *                    line-rate terms on their catalog knobs), so each
 *                    term is tabled per knob level by replaying the
 *                    model's own term construction
 *   throughput_gbps  min(capacity, offered rate) with the offered rate
 *                    tabled from the traffic knob
 *
 * What a knob can touch is the KnobKind that DesignSpace::add recorded
 * from its path; the pruner never reads a knob's name. An add_custom knob
 * is KnobKind::kCustom whatever it is called, so one named like a
 * built-in path cannot pass for it.
 *
 * Construction narrows each knob's level-set domain to a fixpoint
 * against the user's box constraints (interval arithmetic for cost,
 * per-term level tables for capacity/throughput; with a
 * scenario-rebuilding knob the tables are per *stratum* and a level dies
 * only when provably infeasible in every surviving stratum). reject()
 * then decides per config.
 *
 * Soundness contract: reject() returns a reason only for configs whose
 * real evaluation would *provably* violate a constraint. Boundary
 * decisions are bit-exact: per-config cost is computed by
 * DesignSpace::cost itself (same summation order as the model oracle)
 * and capacity terms are produced by the same pure term construction the
 * throughput model runs, so the pruner's comparison sees the identical
 * double the solver would. Terms it cannot table (custom knobs, mixed
 * traffic, multi-knob terms) only ever *weaken* the bound
 * — a config is rejected on an upper bound below a lower constraint (or,
 * when the term set is complete, on the exact metric), never on a guess.
 * Latency and drop-rate constraints are never pruned; they need a solve.
 *
 * The domain-narrowing pass is the subspace view of the same bounds and
 * feeds --prune=explain and the dse.pruned.* stats; the per-config exact
 * checks stay authoritative so floating-point summation order cannot
 * disagree with the oracle at a constraint boundary.
 */
#ifndef LOGNIC_DSE_PRUNE_HPP_
#define LOGNIC_DSE_PRUNE_HPP_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "lognic/core/throughput_model.hpp"
#include "lognic/dse/design_space.hpp"

namespace lognic::dse {

/// Box feasibility constraint on any built-in metric (it need not also be
/// an objective). A candidate violating any constraint never enters the
/// frontier.
struct Constraint {
    std::string metric;
    double lower{-std::numeric_limits<double>::infinity()};
    double upper{std::numeric_limits<double>::infinity()};
};

/// Explorer pruning switch: kExplain behaves like kOn and additionally
/// narrates domains/derived bounds through ExploreOptions::prune_log.
enum class PruneMode { kOff, kOn, kExplain };

std::string prune_mode_name(PruneMode m);
/// @throws std::invalid_argument on unknown names ("off", "on", "explain").
PruneMode prune_mode_from_name(const std::string& name);

/// Machine-readable rejection record for one config.
struct PruneReason {
    std::string metric; ///< the violated constraint's metric
    double value{0.0};  ///< exact metric (exact=true) or its proven bound
    bool exact{true};   ///< false: one-sided bound proof (value >= metric)
    std::string why;    ///< "pruned: constraint violated: <metric> ..."
};

struct PruneStats {
    std::uint64_t rejected{0};       ///< reject() calls that pruned
    std::uint64_t admitted{0};       ///< reject() calls that passed
    std::uint64_t levels_removed{0}; ///< domain cells dead after narrowing
    std::uint64_t fixpoint_rounds{0};
};

class Pruner {
  public:
    /**
     * Derives bounds and narrows domains. Never throws on a well-formed
     * space: strata whose skeleton the model rejects are marked opaque
     * (no capacity pruning there) rather than failing construction.
     */
    Pruner(const DesignSpace& space,
           const std::vector<Constraint>& constraints);

    /**
     * Non-null when @p c is provably infeasible without a solve. Pure in
     * (space, constraints, c) apart from the admitted/rejected counters.
     */
    std::optional<PruneReason> reject(const Config& c);

    const PruneStats& stats() const { return stats_; }

    /// True when domain narrowing proved the whole level dead.
    bool level_removed(std::size_t knob, std::uint32_t level) const;

    /// Human-readable narration of domains, derived bounds, and removals
    /// (the --prune=explain output).
    std::string explain() const;

  private:
    /// One Eq. 4 term the pruner can reproduce without a solve.
    struct TermBound {
        core::TermKind kind{core::TermKind::kIpCompute};
        std::string name;
        int knob{-1}; ///< dependent knob index; -1 = constant
        Bandwidth constant{Bandwidth{0.0}};
        std::vector<Bandwidth> by_level;

        Bandwidth at(const Config& c) const
        {
            return knob < 0 ? constant : by_level[c[static_cast<std::size_t>(
                                             knob)]];
        }
    };

    /// Term tables for one rebuild-knob level (or the whole space).
    struct Stratum {
        bool terms_ok{false}; ///< capacity/throughput bounds usable
        bool complete{false}; ///< every model term is reproduced
        std::vector<TermBound> terms;
    };

    void build_term_tables();
    void narrow_domains();
    const Stratum& stratum_of(const Config& c) const;
    /// Upper bound on capacity for @p c (exact when stratum.complete).
    std::optional<Bandwidth> capacity_bound(const Config& c) const;
    Bandwidth offered(const Config& c) const;
    bool level_alive(std::size_t knob, std::size_t level) const;

    const DesignSpace& space_;
    std::vector<Constraint> constraints_;
    int rebuild_knob_{-1};
    int traffic_knob_{-1};
    bool single_class_{false};
    bool paths_recognized_{false}; ///< no custom knob, <= 1 rebuild knob
    Bandwidth offered_const_{Bandwidth{0.0}};
    std::vector<Bandwidth> offered_by_level_;
    std::vector<Stratum> strata_; ///< one per rebuild level; else size 1
    /// removed_why_[k][l]: non-empty when narrowing proved the cell dead.
    std::vector<std::vector<std::string>> removed_why_;
    PruneStats stats_;
};

} // namespace lognic::dse

#endif // LOGNIC_DSE_PRUNE_HPP_
