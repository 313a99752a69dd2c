/**
 * @file
 * Pareto dominance machinery for multi-objective design-space search.
 *
 * Objective vectors mix senses (throughput is maximized, latency / drop
 * rate / cost minimized), so dominance is sense-aware: a dominates b when
 * a is at least as good in every objective and strictly better in one.
 *
 * Quarantine rule: a candidate whose objective vector contains any NaN or
 * infinity is *quarantined* — it never dominates, is never dominated, and
 * never enters a frontier or an NSGA front. Comparing against NaN would
 * make dominance non-transitive and the frontier dependent on visit
 * order; quarantining keeps every result a pure function of the candidate
 * *set*. Infeasible candidates (constraint violations) are excluded the
 * same way.
 *
 * Frontiers are returned sorted by ascending candidate id (a canonical
 * config fingerprint), so the result is stable under any permutation of
 * the input — the property the 1-vs-N-thread byte-identity gate rests on.
 */
#ifndef LOGNIC_DSE_PARETO_HPP_
#define LOGNIC_DSE_PARETO_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace lognic::dse {

/// Optimization direction of one objective.
enum class Sense { kMaximize, kMinimize };

/// Per-knob level indices: the genotype of one design point.
using Config = std::vector<std::uint32_t>;

/// One evaluated design point as the Pareto machinery sees it.
struct ScoredConfig {
    std::uint64_t id{0};          ///< canonical config fingerprint
    std::string key;              ///< canonical config string (exact)
    Config config;
    std::vector<double> objectives; ///< aligned with the objective specs
    bool feasible{true};          ///< all constraints satisfied
    bool finite{true};            ///< no NaN/inf objective (else quarantined)
    bool pruned{false};           ///< rejected without a solve (Evaluation::pruned)
    std::string why;              ///< violated constraint / failure reason
};

/// True when every objective of @p s is finite — the quarantine test.
bool all_finite(const std::vector<double>& objectives);

/// Candidates eligible for dominance comparison and frontier membership.
inline bool eligible(const ScoredConfig& s) { return s.feasible && s.finite; }

/**
 * Sense-aware strict Pareto dominance: a dominates b when a is
 * better-or-equal in every coordinate and strictly better in at least
 * one. Vectors must be the same size as @p senses; inputs are assumed
 * finite (quarantine first). Equal vectors dominate neither way.
 */
bool dominates(const std::vector<double>& a, const std::vector<double>& b,
               const std::vector<Sense>& senses);

/**
 * Candidate-level dominance applying the quarantine rule: an ineligible
 * candidate (non-finite objectives or constraint violation) never
 * dominates and is never dominated.
 */
bool dominates(const ScoredConfig& a, const ScoredConfig& b,
               const std::vector<Sense>& senses);

/**
 * Indices of the nondominated *eligible* candidates, sorted by ascending
 * (id, key) — a canonical order independent of input permutation.
 * Candidates with identical objective vectors are mutually nondominated
 * and all appear. With a single objective this degenerates to the argmin
 * (or argmax) set.
 *
 * One best-first scan finds them: sort the eligible candidates in
 * descending lexicographic order of their objectives normalized to
 * "larger is better" (x when maximized, -x when minimized; ties by index),
 * then let each join the running frontier unless a member dominates it.
 * A dominator is >= in every normalized coordinate and > in one, so it
 * sorts ahead of all it dominates; by transitivity a dominated candidate
 * has a nondominated dominator, already in the frontier. With F members
 * among N candidates and d objectives this costs O(N log N + N·F·d).
 */
std::vector<std::size_t> pareto_frontier(const std::vector<ScoredConfig>& all,
                                         const std::vector<Sense>& senses);

/**
 * The frontier plus, per member, how many eligible candidates it
 * dominates, counted only over those after it in the scan's order (which
 * holds all it dominates). When F = N the scan and the counts make the
 * N(N-1) dominance tests of an all-pairs pass.
 */
struct DominanceSummary {
    std::vector<std::size_t> frontier; ///< == pareto_frontier(all, senses)
    /// Frontier-aligned: frontier[k] dominates dominated[k] eligible members.
    std::vector<std::uint64_t> dominated;
};

DominanceSummary dominance_summary(const std::vector<ScoredConfig>& all,
                                   const std::vector<Sense>& senses);

/**
 * NSGA-II non-dominated sort over the eligible members of @p all:
 * fronts[0] is the frontier, fronts[1] the frontier once fronts[0] is
 * removed, and so on. Each front is peeled by pareto_frontier()'s scan
 * over the members that remain, which keep their best-first order.
 * Quarantined/infeasible candidates appear in no front (strategies rank
 * them behind every front). Front-internal order is ascending index —
 * deterministic.
 */
std::vector<std::vector<std::size_t>>
non_dominated_sort(const std::vector<ScoredConfig>& all,
                   const std::vector<Sense>& senses);

/**
 * NSGA-II crowding distance for one front (indices into @p all), aligned
 * with @p front. Boundary points get +infinity; degenerate objective
 * ranges contribute zero.
 */
std::vector<double> crowding_distance(const std::vector<std::size_t>& front,
                                      const std::vector<ScoredConfig>& all,
                                      const std::vector<Sense>& senses);

} // namespace lognic::dse

#endif // LOGNIC_DSE_PARETO_HPP_
