#include "lognic/solver/objective.hpp"

#include <algorithm>

namespace lognic::solver {

Vector
Bounds::clamp(Vector x) const
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (i < lower.size())
            x[i] = std::max(x[i], lower[i]);
        if (i < upper.size())
            x[i] = std::min(x[i], upper[i]);
    }
    return x;
}

} // namespace lognic::solver
