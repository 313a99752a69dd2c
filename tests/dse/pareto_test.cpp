// Pareto machinery edge cases: dominance with mixed senses, ties on one
// objective, NaN/inf quarantine, single-objective degeneration, and
// frontier stability under input permutation. The best-first engine behind
// pareto_frontier, dominance_summary and non_dominated_sort is checked
// against a brute-force oracle on seeded populations and on the scored
// 6,400-config NF-placement space.
#include "lognic/dse/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <tuple>

#include "lognic/dse/spec.hpp"

using namespace lognic::dse;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ScoredConfig
make(std::uint64_t id, std::vector<double> objectives, bool feasible = true)
{
    ScoredConfig s;
    s.id = id;
    s.key = "cfg-" + std::to_string(id);
    s.objectives = std::move(objectives);
    s.feasible = feasible;
    s.finite = all_finite(s.objectives);
    return s;
}

const std::vector<Sense> kMaxMin{Sense::kMaximize, Sense::kMinimize};

// --- brute-force oracle ------------------------------------------------------

/// How many eligible members of @p all the candidate @p who dominates.
std::uint64_t
dominated_count(const ScoredConfig& who, const std::vector<ScoredConfig>& all,
                const std::vector<Sense>& senses)
{
    return static_cast<std::uint64_t>(
        std::count_if(all.begin(), all.end(), [&](const ScoredConfig& o) {
            return dominates(who, o, senses);
        }));
}

/// The frontier by definition, in canonical (id, key) order.
std::vector<std::size_t>
brute_frontier(const std::vector<ScoredConfig>& all,
               const std::vector<Sense>& senses)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (eligible(all[i])
            && std::none_of(all.begin(), all.end(),
                            [&](const ScoredConfig& o) {
                                return dominates(o, all[i], senses);
                            }))
            out.push_back(i);
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
        return std::tie(all[a].id, all[a].key)
               < std::tie(all[b].id, all[b].key);
    });
    return out;
}

/// NSGA fronts by definition: a member's front is one past the deepest
/// front among its dominators, or 0 with none; each front by index.
std::vector<std::vector<std::size_t>>
brute_fronts(const std::vector<ScoredConfig>& all,
             const std::vector<Sense>& senses)
{
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (eligible(all[i]))
            order.push_back(i);
    const auto dom = [&](std::size_t a, std::size_t b) {
        return dominates(all[a].objectives, all[b].objectives, senses);
    };
    std::vector<std::size_t> dominators(all.size(), 0);
    for (std::size_t p = 0; p < order.size(); ++p)
        for (std::size_t q = p + 1; q < order.size(); ++q) {
            if (dom(order[p], order[q]))
                ++dominators[order[q]];
            else if (dom(order[q], order[p]))
                ++dominators[order[p]];
        }
    // A dominator has fewer dominators (transitivity), so in this order
    // every member's dominators come before it.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return dominators[a] < dominators[b];
                     });
    std::vector<std::size_t> rank(all.size(), 0);
    std::vector<std::vector<std::size_t>> fronts;
    for (std::size_t p = 0; p < order.size(); ++p) {
        const std::size_t i = order[p];
        for (std::size_t q = 0; q < p && dominators[i] > 0; ++q)
            if (dom(order[q], i))
                rank[i] = std::max(rank[i], rank[order[q]] + 1);
        if (rank[i] >= fronts.size())
            fronts.resize(rank[i] + 1);
        fronts[rank[i]].push_back(i);
    }
    for (auto& front : fronts)
        std::sort(front.begin(), front.end());
    return fronts;
}

std::vector<std::uint64_t>
ids_of(const std::vector<ScoredConfig>& all,
       const std::vector<std::size_t>& indices)
{
    std::vector<std::uint64_t> ids;
    for (std::size_t i : indices)
        ids.push_back(all[i].id);
    return ids;
}

/// Each front's ids, sorted: the fronts as sets, independent of indices.
std::vector<std::vector<std::uint64_t>>
front_id_sets(const std::vector<ScoredConfig>& all,
              const std::vector<std::vector<std::size_t>>& fronts)
{
    std::vector<std::vector<std::uint64_t>> sets;
    for (const auto& front : fronts) {
        sets.push_back(ids_of(all, front));
        std::sort(sets.back().begin(), sets.back().end());
    }
    return sets;
}

/**
 * All three entry points against the oracle on @p all, then on a shuffled
 * copy: the frontier (set and canonical order), its aligned dominated
 * counts and the NSGA fronts must match, and must name the same
 * candidates after the shuffle. Returns the frontier size.
 */
std::size_t
expect_matches_oracle(const std::vector<ScoredConfig>& all,
                      const std::vector<Sense>& senses, std::uint64_t seed)
{
    const std::vector<std::size_t> frontier = brute_frontier(all, senses);
    EXPECT_EQ(pareto_frontier(all, senses), frontier);
    const DominanceSummary summary = dominance_summary(all, senses);
    EXPECT_EQ(summary.frontier, frontier);
    EXPECT_EQ(summary.dominated.size(), summary.frontier.size());
    for (std::size_t k = 0; k < std::min(summary.frontier.size(),
                                         summary.dominated.size());
         ++k)
        EXPECT_EQ(summary.dominated[k],
                  dominated_count(all[summary.frontier[k]], all, senses))
            << "frontier member " << k;
    const auto fronts = non_dominated_sort(all, senses);
    EXPECT_EQ(fronts, brute_fronts(all, senses));

    std::vector<ScoredConfig> shuffled = all;
    std::mt19937_64 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const DominanceSummary again = dominance_summary(shuffled, senses);
    EXPECT_EQ(ids_of(shuffled, again.frontier), ids_of(all, frontier));
    EXPECT_EQ(again.dominated, summary.dominated);
    EXPECT_EQ(ids_of(shuffled, pareto_frontier(shuffled, senses)),
              ids_of(all, frontier));
    EXPECT_EQ(front_id_sets(shuffled, non_dominated_sort(shuffled, senses)),
              front_id_sets(all, fronts));
    return frontier.size();
}

// --- seeded populations ------------------------------------------------------

/// How a population draws its objective values, normalized so that larger
/// is better (a minimized objective stores the negation).
enum class Draw {
    kContinuous,     ///< uniform on [0, 1000)
    kGrid,           ///< small integer grid: ties and duplicate vectors
    kSignedZero,     ///< {-0.0, +0.0, 1.0, -1.0}
    kAntiCorrelated, ///< integer coordinates with one fixed sum: F = N
};

std::vector<ScoredConfig>
population(std::uint64_t seed, std::size_t n, const std::vector<Sense>& senses,
           Draw draw, bool with_ineligible)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::uint64_t k) { return rng() % k; };
    constexpr double kSignedZeroValues[] = {-0.0, 0.0, 1.0, -1.0};
    const std::uint64_t grid = 2 + pick(4);
    const std::uint64_t sum = 3 * (n + 1);
    std::vector<ScoredConfig> all;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(senses.size());
        std::uint64_t left = sum;
        for (std::size_t m = 0; m < senses.size(); ++m) {
            switch (draw) {
              case Draw::kContinuous:
                x[m] = static_cast<double>(rng() >> 11) * 0x1.0p-53 * 1000.0;
                break;
              case Draw::kGrid:
                x[m] = static_cast<double>(pick(grid));
                break;
              case Draw::kSignedZero:
                x[m] = kSignedZeroValues[pick(4)];
                break;
              case Draw::kAntiCorrelated: {
                const std::uint64_t v =
                    m + 1 == senses.size() ? left : pick(left + 1);
                left -= v;
                x[m] = static_cast<double>(v);
                break;
              }
            }
            if (senses[m] == Sense::kMinimize)
                x[m] = -x[m];
        }
        // Distinct ids (an odd multiplier is a bijection mod 2^64) in an
        // order unrelated to the index or the values.
        auto s = make((i + 1) * 0x9e3779b97f4a7c15ull, std::move(x));
        if (with_ineligible) {
            switch (pick(16)) {
              case 0: s.objectives[pick(senses.size())] = kNan; break;
              case 1: s.objectives[pick(senses.size())] = kInf; break;
              case 2: s.objectives[pick(senses.size())] = -kInf; break;
              case 3: s.feasible = false; break;
              default: break;
            }
            s.finite = all_finite(s.objectives);
        }
        all.push_back(std::move(s));
    }
    return all;
}

std::size_t
eligible_count(const std::vector<ScoredConfig>& all)
{
    return static_cast<std::size_t>(
        std::count_if(all.begin(), all.end(), eligible));
}

/**
 * Seeded populations of one @p draw against the oracle: 1-4 objectives in
 * every mix of senses, twice over, each mix once with quarantined or
 * infeasible members sprinkled in and once without. Sizes cycle up to 900;
 * the all-minimize mix of the second round has 2,000 members. Returns how
 * many populations ran.
 */
std::size_t
check_populations(Draw draw)
{
    constexpr std::size_t kSizes[] = {0, 1, 2, 3, 7, 31, 120, 400, 900};
    std::size_t populations = 0;
    for (int round = 0; round < 2; ++round)
        for (std::size_t d = 1; d <= 4; ++d)
            for (unsigned mask = 0; mask < (1u << d); ++mask) {
                std::vector<Sense> senses;
                for (std::size_t m = 0; m < d; ++m)
                    senses.push_back((mask >> m) & 1u ? Sense::kMinimize
                                                      : Sense::kMaximize);
                const std::uint64_t seed =
                    1000 * static_cast<std::uint64_t>(draw) + populations;
                const std::size_t n = round == 1 && mask + 1 == (1u << d)
                                          ? 2000
                                          : kSizes[seed % std::size(kSizes)];
                const bool with_ineligible = (populations + round) % 2 == 0;
                const auto all =
                    population(seed, n, senses, draw, with_ineligible);
                SCOPED_TRACE("seed " + std::to_string(seed) + ", n "
                             + std::to_string(n) + ", mask "
                             + std::to_string(mask) + " of "
                             + std::to_string(d) + " objectives");
                const std::size_t f = expect_matches_oracle(all, senses, seed);
                if (draw == Draw::kAntiCorrelated) {
                    EXPECT_EQ(f, eligible_count(all));
                }
                ++populations;
            }
    return populations;
}

} // namespace

TEST(ParetoDominance, MixedSenses)
{
    const auto a = make(1, {10.0, 5.0}); // higher tput, lower latency
    const auto b = make(2, {8.0, 7.0});
    EXPECT_TRUE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, EqualOnAllObjectivesDominatesNeither)
{
    const auto a = make(1, {10.0, 5.0});
    const auto b = make(2, {10.0, 5.0});
    EXPECT_FALSE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, TieOnOneObjective)
{
    // Same throughput, strictly better latency: still dominates (weak
    // dominance with at least one strict improvement).
    const auto a = make(1, {10.0, 5.0});
    const auto b = make(2, {10.0, 6.0});
    EXPECT_TRUE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, SizeMismatchThrows)
{
    const auto a = make(1, {10.0});
    const auto b = make(2, {10.0, 5.0});
    EXPECT_THROW(static_cast<void>(dominates(a, b, kMaxMin)),
                 std::invalid_argument);
}

TEST(ParetoDominance, IneligibleNeverDominatesOrIsDominated)
{
    const auto good = make(1, {10.0, 5.0});
    const auto nan = make(2, {kNan, 1.0});
    const auto inf = make(3, {kInf, 0.0}); // "infinitely good" — quarantined
    const auto infeasible = make(4, {100.0, 0.1}, /*feasible=*/false);
    for (const auto& bad : {nan, inf, infeasible}) {
        EXPECT_FALSE(dominates(bad, good, kMaxMin));
        EXPECT_FALSE(dominates(good, bad, kMaxMin));
    }
}

TEST(ParetoFrontier, QuarantinedNeverEnterFrontier)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 5.0}),
        make(2, {kNan, kNan}),
        make(3, {kInf, 0.0}),
        make(4, {100.0, 0.0}, /*feasible=*/false),
    };
    const auto frontier = pareto_frontier(all, kMaxMin);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(all[frontier[0]].id, 1u);
}

TEST(ParetoFrontier, SingleObjectiveDegeneratesToArgmin)
{
    const std::vector<Sense> min{Sense::kMinimize};
    const std::vector<ScoredConfig> all{
        make(1, {3.0}), make(2, {1.0}), make(3, {2.0}), make(4, {1.0})};
    const auto frontier = pareto_frontier(all, min);
    // Both argmin ties survive (neither strictly dominates the other).
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(all[frontier[0]].id, 2u);
    EXPECT_EQ(all[frontier[1]].id, 4u);
}

TEST(ParetoFrontier, StableUnderPermutation)
{
    std::vector<ScoredConfig> all{
        make(5, {10.0, 9.0}), make(1, {9.0, 2.0}),  make(9, {7.0, 1.0}),
        make(3, {8.0, 1.5}),  make(7, {10.0, 9.5}), make(2, {1.0, 50.0}),
    };
    const auto ids_of = [&](const std::vector<ScoredConfig>& v) {
        std::vector<std::uint64_t> ids;
        for (std::size_t idx : pareto_frontier(v, kMaxMin))
            ids.push_back(v[idx].id);
        return ids;
    };
    const auto baseline = ids_of(all);
    ASSERT_FALSE(baseline.empty());
    std::vector<ScoredConfig> permuted = all;
    std::sort(permuted.begin(), permuted.end(),
              [](const ScoredConfig& a, const ScoredConfig& b) {
                  return a.id > b.id;
              });
    EXPECT_EQ(ids_of(permuted), baseline);
    std::reverse(permuted.begin(), permuted.end());
    EXPECT_EQ(ids_of(permuted), baseline);
}

TEST(ParetoFrontier, DominatedCountMatchesDefinition)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 1.0}), // dominates 2 and 3
        make(2, {9.0, 2.0}),
        make(3, {8.0, 3.0}),
        make(4, {11.0, 9.0}), // frontier too, dominates nobody
    };
    EXPECT_EQ(dominated_count(all[0], all, kMaxMin), 2u);
    EXPECT_EQ(dominated_count(all[3], all, kMaxMin), 0u);
    const DominanceSummary summary = dominance_summary(all, kMaxMin);
    EXPECT_EQ(summary.frontier, (std::vector<std::size_t>{0, 3}));
    EXPECT_EQ(summary.dominated, (std::vector<std::uint64_t>{2, 0}));
}

TEST(DominanceSummary, MatchesBruteForceFrontierAndCounts)
{
    // The summary must equal the brute-force composition it replaced:
    // the frontier by definition plus dominated_count() per frontier
    // member, aligned with the frontier. Deterministic pseudo-random
    // population, quarantine and infeasibility mixed in.
    std::vector<ScoredConfig> all;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (std::uint64_t i = 0; i < 64; ++i) {
        const double tput = static_cast<double>(next() % 32);
        const double lat = static_cast<double>(next() % 32);
        auto s = make(i + 1, {tput, lat}, /*feasible=*/next() % 8 != 0);
        if (next() % 16 == 0)
            s.objectives[0] = kNan;
        s.finite = all_finite(s.objectives);
        all.push_back(std::move(s));
    }

    const DominanceSummary summary = dominance_summary(all, kMaxMin);
    EXPECT_EQ(summary.frontier, brute_frontier(all, kMaxMin));
    EXPECT_EQ(summary.frontier, pareto_frontier(all, kMaxMin));
    ASSERT_EQ(summary.dominated.size(), summary.frontier.size());
    ASSERT_FALSE(summary.frontier.empty());
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < summary.frontier.size(); ++k) {
        const std::size_t i = summary.frontier[k];
        EXPECT_EQ(summary.dominated[k], dominated_count(all[i], all, kMaxMin))
            << "frontier member " << k << " (candidate " << i << ")";
        total += summary.dominated[k];
    }
    EXPECT_GT(total, 0u);
}

TEST(DominanceSummary, EmptyAndAllIneligible)
{
    const DominanceSummary empty = dominance_summary({}, kMaxMin);
    EXPECT_TRUE(empty.frontier.empty());
    EXPECT_TRUE(empty.dominated.empty());
    const std::vector<ScoredConfig> all{
        make(1, {kNan, 1.0}),
        make(2, {5.0, 2.0}, /*feasible=*/false),
    };
    const auto summary = dominance_summary(all, kMaxMin);
    EXPECT_TRUE(summary.frontier.empty());
    // Counts are frontier-aligned: no frontier, no counts.
    EXPECT_TRUE(summary.dominated.empty());
    EXPECT_TRUE(non_dominated_sort(all, kMaxMin).empty());
}

TEST(ParetoEngine, SignedZerosCompareEqual)
{
    // -0.0 == +0.0 in every objective: neither candidate dominates the
    // other and both are on the frontier, in id order.
    const std::vector<ScoredConfig> all{
        make(2, {0.0, -0.0}),
        make(1, {-0.0, 0.0}),
        make(3, {-0.0, 1.0}), // dominated by both (worse latency)
    };
    EXPECT_FALSE(dominates(all[0], all[1], kMaxMin));
    EXPECT_FALSE(dominates(all[1], all[0], kMaxMin));
    const DominanceSummary summary = dominance_summary(all, kMaxMin);
    EXPECT_EQ(summary.frontier, (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(summary.dominated, (std::vector<std::uint64_t>{1, 1}));
    EXPECT_EQ(non_dominated_sort(all, kMaxMin),
              (std::vector<std::vector<std::size_t>>{{0, 1}, {2}}));
}

TEST(ParetoEngine, ContinuousDrawsMatchTheOracle)
{
    EXPECT_EQ(check_populations(Draw::kContinuous), 60u);
}

TEST(ParetoEngine, IntegerGridsWithTiesAndDuplicatesMatchTheOracle)
{
    EXPECT_EQ(check_populations(Draw::kGrid), 60u);
}

TEST(ParetoEngine, SignedZeroDrawsMatchTheOracle)
{
    EXPECT_EQ(check_populations(Draw::kSignedZero), 60u);
}

TEST(ParetoEngine, AntiCorrelatedPopulationsAreAllFrontier)
{
    EXPECT_EQ(check_populations(Draw::kAntiCorrelated), 60u);
}

TEST(ParetoEngine, ExploreSupervisedSpaceMatchesTheOracle)
{
    // The benchmark's NF-placement space: 16 placements x line rates
    // 10..100 Gb/s x offered rates 2.5..100 Gb/s, throughput vs p99, each
    // config scored by the model. Real model output has ties and clusters
    // that synthetic draws miss.
    using lognic::io::Json;
    const auto knob = [](const char* path, double step, int levels) {
        Json values{lognic::io::JsonArray{}};
        for (int i = 1; i <= levels; ++i)
            values.push_back(Json(step * i));
        Json k;
        k.set("path", Json(path));
        k.set("values", std::move(values));
        return k;
    };
    Json knobs{lognic::io::JsonArray{}};
    knobs.push_back(Json("placement.nf_chain"));
    knobs.push_back(knob("line_rate_gbps", 10.0, 10));
    knobs.push_back(knob("traffic.rate_gbps", 2.5, 40));
    Json doc = Json::parse(sample_explore_spec());
    Json d = doc.at("dse");
    d.set("knobs", std::move(knobs));
    doc.set("dse", std::move(d));
    ExploreSpec spec = explore_spec_from_json(doc);
    spec.options.des.enabled = false;
    std::vector<Sense> senses;
    for (const ObjectiveSpec& o : spec.objectives)
        senses.push_back(o.sense);
    ASSERT_EQ(senses, kMaxMin); // throughput_gbps, p99_latency_us

    std::vector<Config> batch;
    Config c(spec.space.size(), 0);
    for (std::uint64_t i = 0; i < spec.space.combinations(); ++i) {
        batch.push_back(c);
        for (std::size_t k = spec.space.size(); k-- > 0;) {
            if (++c[k] < spec.space.knob(k).values.size())
                break;
            c[k] = 0;
        }
    }
    BatchEvaluator ev(spec.space, spec.objectives, spec.constraints,
                      spec.options);
    ev.run_batch(batch);
    const std::vector<ScoredConfig>& archive = ev.archive();
    ASSERT_EQ(archive.size(), 6400u);
    EXPECT_EQ(eligible_count(archive), 6400u);
    EXPECT_EQ(expect_matches_oracle(archive, senses, 101), 84u);
}

TEST(NonDominatedSort, LayersAndQuarantine)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 1.0}), // front 0
        make(2, {9.0, 2.0}),  // front 1
        make(3, {8.0, 3.0}),  // front 2
        make(4, {kNan, 1.0}), // in no front
    };
    const auto fronts = non_dominated_sort(all, kMaxMin);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
    EXPECT_EQ(fronts[1], (std::vector<std::size_t>{1}));
    EXPECT_EQ(fronts[2], (std::vector<std::size_t>{2}));
}

TEST(CrowdingDistance, BoundariesInfiniteMiddleFinite)
{
    const std::vector<ScoredConfig> all{
        make(1, {1.0, 9.0}),
        make(2, {5.0, 5.0}),
        make(3, {9.0, 1.0}),
    };
    const std::vector<std::size_t> front{0, 1, 2};
    const auto dist = crowding_distance(front, all, kMaxMin);
    ASSERT_EQ(dist.size(), 3u);
    EXPECT_EQ(dist[0], kInf);
    EXPECT_EQ(dist[2], kInf);
    EXPECT_TRUE(std::isfinite(dist[1]));
    EXPECT_GT(dist[1], 0.0);
}

