/**
 * @file
 * Nelder-Mead downhill simplex minimizer.
 *
 * One of calib's fitting backends, suited to the non-smooth objectives
 * that LogNIC produces (min() of several terms is only piecewise
 * differentiable). Box bounds are honored by clamping trial points into
 * the feasible box.
 */
#ifndef LOGNIC_SOLVER_NELDER_MEAD_HPP_
#define LOGNIC_SOLVER_NELDER_MEAD_HPP_

#include "lognic/solver/objective.hpp"

namespace lognic::solver {

struct NelderMeadOptions {
    std::size_t max_iterations{2000};
    double f_tolerance{1e-10};  ///< stop when simplex f-spread is below this
    double x_tolerance{1e-10};  ///< stop when simplex diameter is below this
    double initial_step{0.1};   ///< relative size of the initial simplex
    Bounds bounds{};
};

/// Minimize @p f starting from @p x0.
SolveResult nelder_mead(const ObjectiveFn& f, Vector x0,
                        const NelderMeadOptions& opts = {});

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_NELDER_MEAD_HPP_
