/**
 * @file
 * Integer search spaces and exhaustive search over them.
 *
 * calib's annealing backend searches a discretized box of IntRanges, and
 * exhaustive_search is the brute-force reference its tests compare
 * against. Design-space knobs (core counts, placements) are searched by
 * lognic::dse, not here.
 */
#ifndef LOGNIC_SOLVER_DISCRETE_HPP_
#define LOGNIC_SOLVER_DISCRETE_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace lognic::solver {

/// A point in an integer design space.
using IntVector = std::vector<std::int64_t>;

/// Objective over the integer space; solvers minimize.
using IntObjectiveFn = std::function<double(const IntVector&)>;

/// Inclusive per-dimension integer range.
struct IntRange {
    std::int64_t lo{0};
    std::int64_t hi{0};
    std::int64_t step{1};

    std::size_t count() const
    {
        return hi < lo
            ? 0
            : static_cast<std::size_t>((hi - lo) / step) + 1;
    }
};

struct IntSearchResult {
    IntVector x;
    double value{std::numeric_limits<double>::infinity()};
    std::size_t evaluations{0};
};

/**
 * Exhaustively enumerate the cross product of @p ranges.
 *
 * @throws std::invalid_argument if the space exceeds @p max_points
 * (protects against accidental combinatorial blowups).
 */
IntSearchResult exhaustive_search(const IntObjectiveFn& f,
                                  const std::vector<IntRange>& ranges,
                                  std::size_t max_points = 2'000'000);

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_DISCRETE_HPP_
