/**
 * @file
 * Memoization for loss evaluations.
 *
 * Every loss evaluation is a full analytical-model solve per observation,
 * and the solvers revisit points: multi-start fits re-probe shared
 * corners after bound clamping, the calibrator re-evaluates the incumbent
 * for reporting, and finite-difference probes repeat across backtracking.
 * CachedResiduals memoizes residual vectors keyed on the *bit pattern* of
 * the parameter vector — exact, no tolerance games — and keeps every
 * point it evaluates: one start probes at most a few thousand.
 *
 * Not thread-safe: the calibrator gives each multi-start worker its own
 * CachedResiduals so hit/miss counts (and therefore reports) stay
 * bit-identical for any thread count.
 */
#ifndef LOGNIC_CALIB_CACHE_HPP_
#define LOGNIC_CALIB_CACHE_HPP_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lognic/solver/objective.hpp"

namespace lognic::calib {

/// Bit-exact string key of a parameter vector.
std::string cache_key(const solver::Vector& x);

/**
 * A residual function wrapped with memoization. Tracks how many
 * evaluations actually reached the underlying function (the model
 * solves, i.e. the misses) versus were served from the memo, and records
 * the running-best loss after each underlying evaluation — the
 * convergence trace the calibrator publishes.
 */
class CachedResiduals {
  public:
    explicit CachedResiduals(solver::VectorFn fn);

    solver::Vector operator()(const solver::Vector& x);

    /// Requests that reached the underlying function (one that threw
    /// included): the misses.
    std::uint64_t underlying_evaluations() const { return underlying_; }
    /// Total requests; the hits are requests() - underlying_evaluations().
    std::uint64_t requests() const { return requests_; }
    /// Running best 0.5*||r||^2 after each *underlying* evaluation that
    /// improved on the incumbent: a monotone convergence trace.
    const std::vector<double>& convergence() const { return convergence_; }

  private:
    solver::VectorFn fn_;
    std::unordered_map<std::string, solver::Vector> memo_;
    std::uint64_t underlying_{0};
    std::uint64_t requests_{0};
    double best_{0.0};
    bool has_best_{false};
    std::vector<double> convergence_;
};

} // namespace lognic::calib

#endif // LOGNIC_CALIB_CACHE_HPP_
