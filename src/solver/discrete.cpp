#include "lognic/solver/discrete.hpp"

#include <stdexcept>

namespace lognic::solver {

namespace {

std::size_t
space_size(const std::vector<IntRange>& ranges)
{
    std::size_t total = 1;
    for (const auto& r : ranges) {
        const std::size_t c = r.count();
        if (c == 0)
            return 0;
        if (total > std::numeric_limits<std::size_t>::max() / c)
            return std::numeric_limits<std::size_t>::max();
        total *= c;
    }
    return total;
}

} // namespace

IntSearchResult
exhaustive_search(const IntObjectiveFn& f, const std::vector<IntRange>& ranges,
                  std::size_t max_points)
{
    for (const auto& r : ranges) {
        if (r.step <= 0)
            throw std::invalid_argument("exhaustive_search: step must be > 0");
    }
    const std::size_t total = space_size(ranges);
    if (total == 0)
        throw std::invalid_argument("exhaustive_search: empty range");
    if (total > max_points)
        throw std::invalid_argument(
            "exhaustive_search: design space exceeds max_points");

    IntSearchResult best;
    IntVector x(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i)
        x[i] = ranges[i].lo;

    for (;;) {
        const double v = f(x);
        ++best.evaluations;
        if (v < best.value) {
            best.value = v;
            best.x = x;
        }
        // Odometer increment.
        std::size_t d = 0;
        for (; d < ranges.size(); ++d) {
            x[d] += ranges[d].step;
            if (x[d] <= ranges[d].hi)
                break;
            x[d] = ranges[d].lo;
        }
        if (d == ranges.size())
            break;
    }
    return best;
}

} // namespace lognic::solver
