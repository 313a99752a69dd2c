#include "lognic/solver/discrete.hpp"

#include <gtest/gtest.h>

namespace lognic::solver {
namespace {

double
int_sphere(const IntVector& x)
{
    double s = 0.0;
    for (auto v : x) {
        const double d = static_cast<double>(v) - 3.0;
        s += d * d;
    }
    return s;
}

TEST(ExhaustiveSearch, FindsGlobalOptimum)
{
    const std::vector<IntRange> ranges{{0, 10, 1}, {0, 10, 1}};
    const auto res = exhaustive_search(int_sphere, ranges);
    EXPECT_EQ(res.x, (IntVector{3, 3}));
    EXPECT_DOUBLE_EQ(res.value, 0.0);
    EXPECT_EQ(res.evaluations, 121u);
}

TEST(ExhaustiveSearch, HonorsStep)
{
    const std::vector<IntRange> ranges{{0, 10, 2}};
    const auto res = exhaustive_search(int_sphere, ranges);
    EXPECT_EQ(res.evaluations, 6u); // 0,2,4,6,8,10
    // 3 is not reachable; both 2 and 4 give value 1 and 2 comes first.
    EXPECT_DOUBLE_EQ(res.value, 1.0);
}

TEST(ExhaustiveSearch, GuardsAgainstBlowup)
{
    const std::vector<IntRange> ranges{{0, 999, 1}, {0, 999, 1}, {0, 999, 1}};
    EXPECT_THROW(exhaustive_search(int_sphere, ranges, 1000),
                 std::invalid_argument);
}

TEST(ExhaustiveSearch, RejectsBadRanges)
{
    EXPECT_THROW(exhaustive_search(int_sphere, {{0, 10, 0}}),
                 std::invalid_argument);
    EXPECT_THROW(exhaustive_search(int_sphere, {{5, 2, 1}}),
                 std::invalid_argument);
}

} // namespace
} // namespace lognic::solver
