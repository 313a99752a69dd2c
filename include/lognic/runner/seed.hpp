/**
 * @file
 * Deterministic seed derivation for parallel replications.
 *
 * Every replication of every sweep point gets its own RNG seed, derived
 * from a single root seed with the SplitMix64 finalizer (Steele et al.,
 * "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014). The
 * scheme is pure 64-bit integer arithmetic, so derived seeds are identical
 * on every platform and independent of which thread happens to evaluate a
 * point — the property that makes runner results bit-identical regardless
 * of thread count.
 *
 * Derivation: seed(root, i) = splitmix64_mix(root + (i + 1) * GAMMA).
 * The mix function is a bijection on 64-bit values and the inputs are
 * pairwise distinct for distinct indices (GAMMA is odd), so derived seeds
 * never collide for the same root. Index 0 does not map to the root itself
 * (the +1), keeping the root reserved for deriving, never for running.
 *
 * SplitMix64 is the same construction as a stream: its i-th draw is
 * derive_seed(seed, i). It is the one platform-stable PRNG of the
 * repository (check's scenario generator, dse's random strategies): its
 * uniform draws are explicit bit arithmetic, never std:: distributions,
 * whose output is implementation-defined.
 */
#ifndef LOGNIC_RUNNER_SEED_HPP_
#define LOGNIC_RUNNER_SEED_HPP_

#include <cstdint>

namespace lognic::runner {

/// SplitMix64's golden-ratio increment (odd, hence a bijection mod 2^64).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;

/// The SplitMix64 output (finalizer) function: a 64-bit bijection.
constexpr std::uint64_t
splitmix64_mix(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Seed for replication @p index under @p root; stable across platforms.
constexpr std::uint64_t
derive_seed(std::uint64_t root, std::uint64_t index)
{
    return splitmix64_mix(root + (index + 1) * kSplitMix64Gamma);
}

/// The SplitMix64 stream under @p seed: draw i is derive_seed(seed, i).
class SplitMix64 {
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next_u64()
    {
        state_ += kSplitMix64Gamma;
        return splitmix64_mix(state_);
    }

    /// next_u64() % n, in [0, n). Requires n > 0.
    std::uint64_t below(std::uint64_t n) { return next_u64() % n; }

    /// Uniform in [0, 1): the top 53 bits as a double mantissa.
    double uniform01()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform01();
    }

    /// Uniform integer in [lo, hi], inclusive. Requires lo <= hi.
    std::uint32_t uniform_u32(std::uint32_t lo, std::uint32_t hi)
    {
        return lo + static_cast<std::uint32_t>(
                        below(static_cast<std::uint64_t>(hi) - lo + 1));
    }

    bool bernoulli(double p) { return uniform01() < p; }

  private:
    std::uint64_t state_;
};

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_SEED_HPP_
