/**
 * @file
 * Common objective-function plumbing shared by every solver.
 */
#ifndef LOGNIC_SOLVER_OBJECTIVE_HPP_
#define LOGNIC_SOLVER_OBJECTIVE_HPP_

#include <functional>
#include <limits>
#include <string>

#include "lognic/solver/linalg.hpp"

namespace lognic::solver {

/// Scalar objective f: R^n -> R. Solvers always minimize.
using ObjectiveFn = std::function<double(const Vector&)>;

/// Vector-valued function (residuals, constraint sets).
using VectorFn = std::function<Vector(const Vector&)>;

/// Simple per-dimension box bounds. Empty vectors mean "unbounded".
struct Bounds {
    Vector lower; ///< empty, or one entry per dimension
    Vector upper; ///< empty, or one entry per dimension

    /// Clamp @p x into the box (no-op for unbounded dimensions).
    Vector clamp(Vector x) const;

    /// True when @p x satisfies every bound.
    bool contains(const Vector& x) const;
};

/// Result of a solver run.
struct SolveResult {
    Vector x;                ///< best point found
    double value{std::numeric_limits<double>::infinity()}; ///< f(x)
    std::size_t iterations{0};
    std::size_t evaluations{0};
    bool converged{false};
    std::string message;
};

/// Forward-difference Jacobian of a vector function (rows = outputs).
Matrix numerical_jacobian(const VectorFn& f, const Vector& x,
                          double step = 1e-6);

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_OBJECTIVE_HPP_
