/**
 * @file
 * Problem and result plumbing for levenberg_marquardt: the residual
 * function type, box bounds, and the result fields every fit reports.
 */
#ifndef LOGNIC_SOLVER_OBJECTIVE_HPP_
#define LOGNIC_SOLVER_OBJECTIVE_HPP_

#include <functional>
#include <limits>
#include <string>

#include "lognic/solver/linalg.hpp"

namespace lognic::solver {

/// Vector-valued function: the residual vector r(x) of a fit.
using VectorFn = std::function<Vector(const Vector&)>;

/// Simple per-dimension box bounds. Empty vectors mean "unbounded".
struct Bounds {
    Vector lower; ///< empty, or one entry per dimension
    Vector upper; ///< empty, or one entry per dimension

    /// Clamp @p x into the box (no-op for unbounded dimensions).
    Vector clamp(Vector x) const;
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

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_OBJECTIVE_HPP_
