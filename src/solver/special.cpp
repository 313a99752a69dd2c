#include "lognic/solver/special.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace lognic::solver {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEps = 1e-14;

/// ln Γ(a). lgamma_r rather than std::lgamma: lgamma also stores the sign
/// of Γ(a) in the global `signgam`, a data race when model solves run on
/// several threads at once (exploration batches, calibration starts).
double
log_gamma(double a)
{
    int sign = 0;
    return ::lgamma_r(a, &sign);
}

/// Series for P(a, x) over the prefactor; converges fast for x < a + 1.
double
gamma_p_series(double a, double x)
{
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < kMaxIterations; ++i) {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if (std::abs(term) < std::abs(sum) * kEps)
            break;
    }
    return sum;
}

/// Lentz continued fraction for Q(a, x) over the prefactor; converges fast
/// for x >= a + 1.
double
gamma_q_continued_fraction(double a, double x)
{
    constexpr double kTiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= kMaxIterations; ++i) {
        const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < kTiny)
            d = kTiny;
        c = b + an / c;
        if (std::abs(c) < kTiny)
            c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < kEps)
            break;
    }
    return h;
}

/**
 * P(a, x) and Q(a, x) for x > 0, given ln Γ(a), with the prefactor
 * x^a e^-x / Γ(a) that both expansions share (the gamma density at x is
 * prefactor / x). Each branch computes the tail its expansion converges
 * to and takes the other as 1 minus it.
 */
struct IncompleteGamma {
    double p;
    double q;
    double prefactor;
};

IncompleteGamma
incomplete_gamma(double a, double x, double log_gamma_a)
{
    const double prefactor = std::exp(-x + a * std::log(x) - log_gamma_a);
    if (x < a + 1.0) {
        const double p = gamma_p_series(a, x) * prefactor;
        return {p, 1.0 - p, prefactor};
    }
    const double q = prefactor * gamma_q_continued_fraction(a, x);
    return {1.0 - q, q, prefactor};
}

void
check_gamma_arguments(double a, double x, const char* who)
{
    if (!(a > 0.0) || x < 0.0 || !std::isfinite(a) || !std::isfinite(x))
        throw std::invalid_argument(std::string(who)
                                    + ": need a > 0, x >= 0");
}

/// Standard normal quantile to ~5e-4 (Abramowitz & Stegun 26.2.23); it
/// only places the quantile solver's first iterate.
double
normal_quantile_estimate(double p)
{
    const double t = std::sqrt(-2.0 * std::log(std::min(p, 1.0 - p)));
    const double z = t
        - (2.515517 + t * (0.802853 + t * 0.010328))
            / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)));
    return p < 0.5 ? -z : z;
}

} // namespace

double
regularized_gamma_p(double a, double x)
{
    check_gamma_arguments(a, x, "regularized_gamma_p");
    if (x == 0.0)
        return 0.0;
    return incomplete_gamma(a, x, log_gamma(a)).p;
}

double
regularized_gamma_q(double a, double x)
{
    check_gamma_arguments(a, x, "regularized_gamma_q");
    if (x == 0.0)
        return 1.0;
    return incomplete_gamma(a, x, log_gamma(a)).q;
}

double
shifted_gamma_mixture_quantile(std::span<const ShiftedGamma> mixture,
                               double p)
{
    if (!(p > 0.0) || !(p < 1.0))
        throw std::invalid_argument(
            "shifted_gamma_mixture_quantile: need p in (0, 1)");
    double total = 0.0;
    for (const ShiftedGamma& c : mixture) {
        const bool shape_ok = c.k == 0.0
            || (c.k > 0.0 && std::isfinite(c.k) && c.theta > 0.0
                && std::isfinite(c.theta));
        if (!(c.weight >= 0.0) || !std::isfinite(c.weight)
            || !(c.shift >= 0.0) || !std::isfinite(c.shift) || !shape_ok)
            throw std::invalid_argument(
                "shifted_gamma_mixture_quantile: need finite weight, "
                "shift >= 0 and k = 0 or k, theta > 0 per component");
        total += c.weight;
    }
    if (!(total > 0.0))
        throw std::invalid_argument(
            "shifted_gamma_mixture_quantile: need a positive total weight");

    // Normalized components with ln Γ(k) hoisted out of the iteration;
    // weightless ones cannot move the answer and are dropped.
    struct Component {
        double weight;
        double shift;
        double k;
        double theta;
        double log_gamma_k;
    };
    std::vector<Component> parts;
    parts.reserve(mixture.size());
    double mean = 0.0;
    double base = std::numeric_limits<double>::infinity();
    for (const ShiftedGamma& c : mixture) {
        if (c.weight == 0.0)
            continue;
        const bool gamma = c.k > 0.0;
        parts.push_back(Component{c.weight / total, c.shift, c.k,
                                  gamma ? c.theta : 0.0,
                                  gamma ? log_gamma(c.k) : 0.0});
        const Component& part = parts.back();
        mean += part.weight * (part.shift + part.k * part.theta);
        base = std::min(base, part.shift);
    }

    // Survival S(t) = P(T > t) and the density of its continuous part,
    // in one pass.
    struct Tail {
        double survival;
        double density;
    };
    const auto tail_at = [&parts](double t) {
        Tail tail{0.0, 0.0};
        for (const Component& c : parts) {
            if (c.k == 0.0) {
                if (t < c.shift)
                    tail.survival += c.weight;
            } else if (t <= c.shift) {
                tail.survival += c.weight;
            } else {
                const double x = (t - c.shift) / c.theta;
                const IncompleteGamma g =
                    incomplete_gamma(c.k, x, c.log_gamma_k);
                tail.survival += c.weight * g.q;
                tail.density += c.weight * g.prefactor / (x * c.theta);
            }
        }
        return tail;
    };
    const double target = 1.0 - p;
    if (tail_at(0.0).survival <= target)
        return 0.0; // at least p of the mass sits at zero

    // Markov: S(t) <= mean / t, so S(hi) <= target.
    double lo = 0.0;
    double hi = mean / target;

    // Wilson-Hilferty start: the quantile of the gamma with the mixture's
    // mean and variance above its lowest shift.
    double variance = 0.0;
    for (const Component& c : parts) {
        const double d = c.shift + c.k * c.theta - mean;
        variance += c.weight * (d * d + c.k * c.theta * c.theta);
    }
    const double scale = mean - base;
    const double v = variance / (9.0 * scale * scale);
    const double cube = 1.0 - v + normal_quantile_estimate(p) * std::sqrt(v);
    double t = base + scale * cube * cube * cube;
    if (!(cube > 0.0 && t > lo && t < hi))
        t = mean;

    constexpr double kNewtonTolerance = 1e-13;
    constexpr double kBracketTolerance =
        4.0 * std::numeric_limits<double>::epsilon();
    // Bisection needs at most ~2,100 halvings to exhaust a double's range;
    // the bound only guards against an arithmetic surprise.
    constexpr int kMaxSteps = 4096;
    double last_step = hi - lo;
    double step_before_last = last_step;
    for (int i = 0; i < kMaxSteps; ++i) {
        const Tail tail = tail_at(t);
        if (tail.survival > target)
            lo = t;
        else
            hi = t;
        if (tail.survival > 0.0 && tail.density > 0.0) {
            // Newton on ln S(t) - ln(1 - p).
            const double step = std::log(tail.survival / target)
                * tail.survival / tail.density;
            const double next = t + step;
            if (std::abs(step) <= kNewtonTolerance * t)
                return next;
            if (next > lo && next < hi
                && std::abs(2.0 * step) <= std::abs(step_before_last)) {
                step_before_last = last_step;
                last_step = step;
                t = next;
                continue;
            }
        }
        if (hi - lo <= kBracketTolerance * hi)
            return hi;
        step_before_last = last_step;
        last_step = 0.5 * (hi - lo);
        t = lo + last_step;
    }
    return t;
}

double
gamma_quantile(double k, double theta, double p)
{
    if (!(k > 0.0) || !(theta > 0.0) || !(p > 0.0) || !(p < 1.0))
        throw std::invalid_argument(
            "gamma_quantile: need k, theta > 0 and p in (0, 1)");
    const ShiftedGamma gamma{1.0, 0.0, k, theta};
    return shifted_gamma_mixture_quantile({&gamma, 1}, p);
}

} // namespace lognic::solver
