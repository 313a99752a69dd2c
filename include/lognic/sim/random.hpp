/**
 * @file
 * Random-number utilities for the simulator.
 *
 * One Rng instance per simulation keeps runs reproducible for a given seed.
 */
#ifndef LOGNIC_SIM_RANDOM_HPP_
#define LOGNIC_SIM_RANDOM_HPP_

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lognic::sim {

/**
 * Unnormalized sampling weights, validated and summed once. The simulator
 * draws from the same weights for every packet, so the checks and the sum
 * belong to the run, not to each draw.
 */
class WeightTable {
  public:
    /**
     * @throws std::invalid_argument on empty, all-zero, negative, or
     * non-finite weights (std::discrete_distribution makes those UB).
     */
    explicit WeightTable(std::vector<double> weights)
        : weights_(std::move(weights))
    {
        for (double w : weights_) {
            if (!(w >= 0.0) || !std::isfinite(w))
                throw std::invalid_argument(
                    "WeightTable: weights must be finite and non-negative");
            total_ += w;
        }
        if (weights_.empty() || total_ <= 0.0)
            throw std::invalid_argument(
                "WeightTable: need at least one positive weight");
    }

    const std::vector<double>& weights() const { return weights_; }

    /// The weights' sum, accumulated in index order.
    double total() const { return total_; }

  private:
    std::vector<double> weights_;
    double total_{0.0};
};

/**
 * A service-time law: a positive mean and a squared coefficient of
 * variation. scv <= 0 is deterministic; otherwise the law is gamma with
 * shape 1/scv and scale mean * scv (shape 1, i.e. scv = 1, is exactly the
 * exponential distribution). The gamma parameters, with the square root
 * the sampler needs, are computed once per law instead of once per draw.
 *
 * Every scv > 0 goes through the same gamma sampler: an exact-compare
 * special case for scv == 1 would draw from a different engine stream
 * than scv = 1 ± epsilon and make sweep results discontinuous across the
 * exponential point.
 */
class ServiceLaw {
  public:
    ServiceLaw(double mean, double scv)
        : mean_(mean), deterministic_(scv <= 0.0)
    {
        if (!deterministic_) {
            const double shape = 1.0 / scv;
            gamma_ = std::gamma_distribution<double>::param_type(
                shape, mean / shape);
        }
    }

    double mean() const { return mean_; }
    bool deterministic() const { return deterministic_; }
    const std::gamma_distribution<double>::param_type& gamma() const
    {
        return gamma_;
    }

  private:
    double mean_;
    bool deterministic_;
    std::gamma_distribution<double>::param_type gamma_;
};

class Rng {
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /// Uniform in [0, 1).
    double uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /// Exponential with the given mean (> 0).
    double exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(engine_);
    }

    /**
     * One draw from @p law: its mean when it is deterministic (no engine
     * state consumed), otherwise a gamma sample from a distribution built
     * fresh on the law's parameters, so no saved state carries over
     * between draws.
     */
    double service_time(const ServiceLaw& law)
    {
        if (law.deterministic())
            return law.mean();
        return std::gamma_distribution<double>(law.gamma())(engine_);
    }

    /**
     * Index sampled from @p table's weights via a manual CDF walk — one
     * uniform draw, no allocation, no re-validation (this sits on the
     * per-packet steering hot path).
     */
    std::size_t weighted_index(const WeightTable& table)
    {
        const std::vector<double>& weights = table.weights();
        double u = uniform() * table.total();
        std::size_t last_positive = 0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (weights[i] <= 0.0)
                continue;
            last_positive = i;
            u -= weights[i];
            if (u < 0.0)
                return i;
        }
        // Floating-point accumulation can leave u barely non-negative
        // after the last subtraction; attribute the sliver to the final
        // positive-weight bucket.
        return last_positive;
    }

    /// Bernoulli with probability @p p of true.
    bool coin(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    std::mt19937_64& engine() { return engine_; }

    /**
     * Exact engine state as text (the standard stream representation:
     * 312 decimal words + position). Every distribution here is
     * constructed fresh per draw, so the engine state IS the whole RNG
     * state — restore_state() resumes the stream mid-run bit-exactly.
     */
    std::string save_state() const
    {
        std::ostringstream os;
        os << engine_;
        return os.str();
    }

    /// @throws std::runtime_error on malformed state text.
    void restore_state(const std::string& state)
    {
        std::istringstream is(state);
        is >> engine_;
        if (is.fail())
            throw std::runtime_error("Rng::restore_state: malformed state");
    }

  private:
    std::mt19937_64 engine_;
};

} // namespace lognic::sim

#endif // LOGNIC_SIM_RANDOM_HPP_
