#include "lognic/dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lognic::dse {

bool
all_finite(const std::vector<double>& objectives)
{
    for (double v : objectives)
        if (!std::isfinite(v))
            return false;
    return true;
}

namespace {

/// @p x as a "larger is better" value under @p sense.
double
larger_is_better(double x, Sense sense)
{
    return sense == Sense::kMaximize ? x : -x;
}

/// Canonical candidate order: by id, ties broken by the exact key.
bool
canonical_less(const ScoredConfig& a, const ScoredConfig& b)
{
    if (a.id != b.id)
        return a.id < b.id;
    return a.key < b.key;
}

/// The eligible members of @p all, best first (see pareto_frontier()).
std::vector<std::size_t>
best_first(const std::vector<ScoredConfig>& all,
           const std::vector<Sense>& senses)
{
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (!eligible(all[i]))
            continue;
        if (all[i].objectives.size() != senses.size())
            throw std::invalid_argument(
                "pareto: objective vector size mismatch");
        order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        for (std::size_t m = 0; m < senses.size(); ++m) {
            const double x = larger_is_better(all[a].objectives[m], senses[m]);
            const double y = larger_is_better(all[b].objectives[m], senses[m]);
            if (x != y)
                return x > y;
        }
        return a < b;
    });
    return order;
}

/// Positions (ascending) of the nondominated members of the best-first
/// @p order: each joins unless an earlier joiner dominates it.
std::vector<std::size_t>
scan_frontier(const std::vector<ScoredConfig>& all,
              const std::vector<std::size_t>& order,
              const std::vector<Sense>& senses)
{
    std::vector<std::size_t> front;
    for (std::size_t p = 0; p < order.size(); ++p) {
        const std::vector<double>& x = all[order[p]].objectives;
        if (std::none_of(front.begin(), front.end(), [&](std::size_t q) {
                return dominates(all[order[q]].objectives, x, senses);
            }))
            front.push_back(p);
    }
    return front;
}

} // namespace

bool
dominates(const std::vector<double>& a, const std::vector<double>& b,
          const std::vector<Sense>& senses)
{
    if (a.size() != senses.size() || b.size() != senses.size())
        throw std::invalid_argument(
            "dominates: objective vector size mismatch");
    bool strictly_better = false;
    for (std::size_t i = 0; i < senses.size(); ++i) {
        const double x = larger_is_better(a[i], senses[i]);
        const double y = larger_is_better(b[i], senses[i]);
        if (x < y)
            return false;
        if (x > y)
            strictly_better = true;
    }
    return strictly_better;
}

bool
dominates(const ScoredConfig& a, const ScoredConfig& b,
          const std::vector<Sense>& senses)
{
    if (!eligible(a) || !eligible(b))
        return false;
    return dominates(a.objectives, b.objectives, senses);
}

std::vector<std::size_t>
pareto_frontier(const std::vector<ScoredConfig>& all,
                const std::vector<Sense>& senses)
{
    const std::vector<std::size_t> order = best_first(all, senses);
    std::vector<std::size_t> out = scan_frontier(all, order, senses);
    for (std::size_t& p : out)
        p = order[p];
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
        return canonical_less(all[a], all[b]);
    });
    return out;
}

DominanceSummary
dominance_summary(const std::vector<ScoredConfig>& all,
                  const std::vector<Sense>& senses)
{
    const std::vector<std::size_t> order = best_first(all, senses);
    DominanceSummary out;
    out.frontier = scan_frontier(all, order, senses); // positions in order
    std::sort(out.frontier.begin(), out.frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  return canonical_less(all[order[a]], all[order[b]]);
              });
    // Whatever a member dominates sorts after it: count only there.
    for (std::size_t& p : out.frontier) {
        const std::vector<double>& x = all[order[p]].objectives;
        out.dominated.push_back(static_cast<std::uint64_t>(std::count_if(
            order.begin() + static_cast<std::ptrdiff_t>(p) + 1, order.end(),
            [&](std::size_t j) {
                return dominates(x, all[j].objectives, senses);
            })));
        p = order[p];
    }
    return out;
}

std::vector<std::vector<std::size_t>>
non_dominated_sort(const std::vector<ScoredConfig>& all,
                   const std::vector<Sense>& senses)
{
    std::vector<std::vector<std::size_t>> fronts;
    // Peel one front per round; the members that remain stay best-first.
    std::vector<std::size_t> remaining = best_first(all, senses);
    while (!remaining.empty()) {
        std::vector<char> joined(remaining.size(), 0);
        for (std::size_t p : scan_frontier(all, remaining, senses))
            joined[p] = 1;
        std::vector<std::size_t> front;
        std::vector<std::size_t> rest;
        for (std::size_t p = 0; p < remaining.size(); ++p)
            (joined[p] ? front : rest).push_back(remaining[p]);
        std::sort(front.begin(), front.end());
        fronts.push_back(std::move(front));
        remaining = std::move(rest);
    }
    return fronts;
}

std::vector<double>
crowding_distance(const std::vector<std::size_t>& front,
                  const std::vector<ScoredConfig>& all,
                  const std::vector<Sense>& senses)
{
    const double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(front.size(), 0.0);
    if (front.size() <= 2) {
        std::fill(dist.begin(), dist.end(), kInf);
        return dist;
    }
    for (std::size_t m = 0; m < senses.size(); ++m) {
        // Positions into `front`, ordered by objective m (ties by index so
        // the sort — and therefore the distances — are deterministic).
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double x = all[front[a]].objectives[m];
                      const double y = all[front[b]].objectives[m];
                      if (x != y)
                          return x < y;
                      return front[a] < front[b];
                  });
        const double lo = all[front[order.front()]].objectives[m];
        const double hi = all[front[order.back()]].objectives[m];
        dist[order.front()] = kInf;
        dist[order.back()] = kInf;
        const double range = hi - lo;
        if (range <= 0.0)
            continue;
        for (std::size_t i = 1; i + 1 < order.size(); ++i) {
            const double below = all[front[order[i - 1]]].objectives[m];
            const double above = all[front[order[i + 1]]].objectives[m];
            dist[order[i]] += (above - below) / range;
        }
    }
    return dist;
}

} // namespace lognic::dse
