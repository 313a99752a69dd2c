#include "lognic/solver/least_squares.hpp"

#include <algorithm>
#include <cmath>

namespace lognic::solver {

namespace {

double
sum_squares(const Vector& r)
{
    double s = 0.0;
    for (double v : r)
        s += v * v;
    return 0.5 * s;
}

/**
 * Scale-aware forward-difference Jacobian: column i is perturbed by
 * h_i = rel_step * max(|x_i|, scale_i), so parameters of very different
 * magnitudes (Gbps next to microseconds) are each probed proportionately.
 * The perturbation flips to a backward difference when the forward probe
 * would leave the feasible box, keeping every evaluation in-bounds.
 */
Matrix
scaled_jacobian(const VectorFn& f, const Vector& x, const Vector& f0,
                const LeastSquaresOptions& opts)
{
    Matrix j(f0.size(), x.size());
    Vector probe = x;
    for (std::size_t c = 0; c < x.size(); ++c) {
        const double floor =
            c < opts.scales.size() ? std::abs(opts.scales[c]) : 1e-8;
        double h = opts.relative_step * std::max(std::abs(x[c]), floor);
        if (c < opts.bounds.upper.size()
            && x[c] + h > opts.bounds.upper[c]
            && (c >= opts.bounds.lower.size()
                || x[c] - h >= opts.bounds.lower[c]))
            h = -h;
        probe[c] = x[c] + h;
        const Vector fp = f(probe);
        probe[c] = x[c];
        for (std::size_t r = 0; r < f0.size(); ++r)
            j(r, c) = (fp[r] - f0[r]) / h;
    }
    return j;
}

} // namespace

const char*
to_string(LsTermination reason)
{
    switch (reason) {
    case LsTermination::kGradientTolerance:
        return "gradient below tolerance";
    case LsTermination::kStepTolerance:
        return "step below tolerance";
    case LsTermination::kStalled:
        return "stalled: no descent step found (damping saturated)";
    case LsTermination::kIterationLimit:
        return "iteration limit reached";
    }
    return "unknown";
}

LeastSquaresResult
levenberg_marquardt(const VectorFn& residual_fn, Vector x0,
                    const LeastSquaresOptions& opts)
{
    LeastSquaresResult result;
    const std::size_t n = x0.size();

    Vector x = opts.bounds.clamp(std::move(x0));
    Vector r = residual_fn(x);
    double cost = sum_squares(r);
    double damping = opts.initial_damping;
    std::size_t evals = 1;
    result.termination = LsTermination::kIterationLimit;

    for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
        result.iterations = iter + 1;

        const Matrix j = scaled_jacobian(residual_fn, x, r, opts);
        evals += n;
        const Matrix jt = j.transposed();
        Matrix jtj = jt * j;
        const Vector g = jt * r; // gradient of 0.5||r||^2

        double g_inf = 0.0;
        for (double v : g)
            g_inf = std::max(g_inf, std::abs(v));
        if (g_inf < opts.gradient_tolerance) {
            result.converged = true;
            result.termination = LsTermination::kGradientTolerance;
            break;
        }

        bool stepped = false;
        for (int attempt = 0; attempt < 30 && !stepped; ++attempt) {
            // Solve (J^T J + damping * diag(J^T J)) dx = -g.
            Matrix a = jtj;
            for (std::size_t i = 0; i < n; ++i)
                a(i, i) += damping * std::max(jtj(i, i), 1e-12);
            Vector neg_g = scaled(g, -1.0);
            Vector dx;
            try {
                dx = solve_cholesky(a, neg_g);
            } catch (const std::exception&) {
                damping *= 10.0;
                continue;
            }

            const Vector x_new = opts.bounds.clamp(axpy(1.0, dx, x));
            const Vector r_new = residual_fn(x_new);
            ++evals;
            const double cost_new = sum_squares(r_new);
            if (cost_new < cost) {
                double step = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    step = std::max(step, std::abs(x_new[i] - x[i]));
                x = x_new;
                r = r_new;
                cost = cost_new;
                damping = std::max(damping * 0.3, 1e-12);
                stepped = true;
                if (step < opts.step_tolerance) {
                    result.converged = true;
                    result.termination = LsTermination::kStepTolerance;
                }
            } else {
                damping *= 10.0;
            }
        }
        if (!stepped) {
            // Damping saturated without a descent step: the iterate may
            // still be useful (often it sits in a flat valley), but this
            // is *not* a met tolerance — report it as such instead of
            // dressing it up as convergence.
            result.termination = LsTermination::kStalled;
            break;
        }
        if (result.converged)
            break;
    }

    result.x = std::move(x);
    result.value = cost;
    result.residuals = std::move(r);
    result.evaluations = evals;
    result.message = to_string(result.termination);
    return result;
}

} // namespace lognic::solver
