#include "lognic/solver/objective.hpp"

#include <algorithm>
#include <cmath>

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

bool
Bounds::contains(const Vector& x) const
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (i < lower.size() && x[i] < lower[i])
            return false;
        if (i < upper.size() && x[i] > upper[i])
            return false;
    }
    return true;
}

Matrix
numerical_jacobian(const VectorFn& f, const Vector& x, double step)
{
    const Vector f0 = f(x);
    Matrix j(f0.size(), x.size());
    Vector probe = x;
    for (std::size_t c = 0; c < x.size(); ++c) {
        const double h = step * std::max(1.0, std::abs(x[c]));
        probe[c] = x[c] + h;
        const Vector fp = f(probe);
        probe[c] = x[c];
        for (std::size_t r = 0; r < f0.size(); ++r)
            j(r, c) = (fp[r] - f0[r]) / h;
    }
    return j;
}

} // namespace lognic::solver
