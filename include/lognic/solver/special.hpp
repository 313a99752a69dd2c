/**
 * @file
 * Special functions for the tail-latency extension: the regularized
 * incomplete gamma function and the quantile of a weighted mixture of
 * shifted gamma distributions (one gamma is its one-component case).
 */
#ifndef LOGNIC_SOLVER_SPECIAL_HPP_
#define LOGNIC_SOLVER_SPECIAL_HPP_

#include <span>

namespace lognic::solver {

/**
 * Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
 * for a > 0, x >= 0. Series expansion for x < a + 1, Lentz continued
 * fraction otherwise; absolute accuracy ~1e-12.
 */
double regularized_gamma_p(double a, double x);

/**
 * Upper tail Q(a, x) = 1 - P(a, x). For x >= a + 1 the continued fraction
 * gives Q itself, so the upper tail keeps its relative precision down to
 * the underflow of e^-x instead of bottoming out at 1 - (1 - Q).
 */
double regularized_gamma_q(double a, double x);

/**
 * One component of a mixture: with probability proportional to @p weight,
 * the value @p shift + Gamma(@p k, @p theta). @p k = 0 makes the component
 * deterministic, a point mass at @p shift (theta is then unused).
 */
struct ShiftedGamma {
    double weight;
    double shift;
    double k;
    double theta;
};

/**
 * The p-quantile of a mixture of shifted gammas: the least t with
 * P(T <= t) >= @p p, i.e. survival S(t) <= 1 - p. Weights need not be
 * normalized.
 *
 * Every component is non-negative, so Markov's inequality
 * S(t) <= E[T] / t brackets the answer in [0, E[T] / (1 - p)] without a
 * search. From a Wilson-Hilferty start (the mixture moment-matched to one
 * shifted gamma), the solver takes Newton steps on ln S(t), which is
 * linear in an exponential tail; S and its density come from one pass
 * over the components, with ln Gamma(k) computed once per component. A
 * step that leaves the bracket, fails to halve the step before last, or
 * meets zero density (a deterministic component's jump) is replaced by
 * bisection. Stops when a Newton step is within 1e-13 of t relative, or
 * the bracket within a few ulps; no static state, so concurrent calls
 * are safe.
 *
 * Throws std::invalid_argument unless p is in (0, 1), the weights are
 * finite, non-negative and not all zero, shifts are finite and
 * non-negative, and each component has k = 0 or finite k, theta > 0.
 */
double shifted_gamma_mixture_quantile(std::span<const ShiftedGamma> mixture,
                                      double p);

/**
 * Quantile of the gamma distribution with shape @p k and scale @p theta:
 * the t with P(k, t/theta) = @p p, to ~1e-13 relative at any scale. The
 * one-component case of shifted_gamma_mixture_quantile; k, theta > 0 and
 * @p p in (0, 1).
 */
double gamma_quantile(double k, double theta, double p);

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_SPECIAL_HPP_
