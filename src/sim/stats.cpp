#include "lognic/sim/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace lognic::sim {

namespace {

// --- seal(): an in-place radix sort in IEEE-754 totalOrder -----------------

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// The unsigned key whose ascending order is IEEE-754 totalOrder: a value
/// with its sign bit set (a negative NaN too) flips every bit, so larger
/// magnitudes come first; any other value only sets the sign bit, which
/// puts it above every negative one. -0.0 sorts just below +0.0, and NaNs
/// sit at the two ends by sign and then payload, as std::strong_order
/// orders doubles.
std::uint64_t
key_of(double x)
{
    const auto b = std::bit_cast<std::uint64_t>(x);
    const auto negative =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63);
    return b ^ (negative | kSignBit);
}

double
value_of(std::uint64_t key)
{
    const auto positive =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(key) >> 63);
    return std::bit_cast<double>(key ^ (~positive | kSignBit));
}

using SampleIter = std::deque<double>::iterator;

/// Sorts a deque range by key_of() without copying it out: a range larger
/// than the scratch is partitioned in place by its highest varying key
/// bits (MSD, American flag), and each part that fits is radix-sorted
/// through two fixed key buffers. Equal keys are equal bit patterns, so
/// the order, and every bit the recorder reads back, does not depend on
/// how the sort proceeds.
class TotalOrderSort {
  public:
    /// Keys one scratch half holds; the sort allocates at most two halves.
    static constexpr std::size_t kScratch = 8192;

    explicit TotalOrderSort(std::size_t n)
        : half_(std::min(n, kScratch)),
          keys_(std::make_unique_for_overwrite<std::uint64_t[]>(2 * half_))
    {
    }

    void
    sort(SampleIter first, std::size_t n)
    {
        if (n <= half_) {
            sort_in_scratch(first, n);
            return;
        }
        std::uint64_t all = ~std::uint64_t{0};
        std::uint64_t any = 0;
        const SampleIter last = first + static_cast<std::ptrdiff_t>(n);
        for (SampleIter it = first; it != last; ++it) {
            const std::uint64_t k = key_of(*it);
            all &= k;
            any |= k;
        }
        if (all == any)
            return; // every sample has the same bits
        // Every key has the same bits from `varying` up; the digit is the
        // kDigitBits bits just below.
        const int varying = static_cast<int>(std::bit_width(all ^ any));
        const int shift = std::max(0, varying - kDigitBits);
        const auto digit = [shift](double x) {
            return static_cast<std::size_t>(key_of(x) >> shift)
                & (kRadix - 1);
        };
        std::array<std::size_t, kRadix> count{};
        for (SampleIter it = first; it != last; ++it)
            ++count[digit(*it)];
        // Cycle each misplaced sample into the next free slot of its
        // bucket; a bucket is done once none of its slots is left.
        std::array<SampleIter, kRadix> next;
        std::array<std::size_t, kRadix> left = count;
        SampleIter at = first;
        for (std::size_t d = 0; d < kRadix; ++d) {
            next[d] = at;
            at += static_cast<std::ptrdiff_t>(count[d]);
        }
        for (std::size_t d = 0; d < kRadix; ++d) {
            while (left[d] > 0) {
                double v = *next[d];
                for (std::size_t dv = digit(v); dv != d; dv = digit(v)) {
                    std::swap(v, *next[dv]++);
                    --left[dv];
                }
                *next[d]++ = v;
                --left[d];
            }
        }
        std::size_t begin = 0;
        for (std::size_t d = 0; d < kRadix; ++d) {
            sort(first + static_cast<std::ptrdiff_t>(begin), count[d]);
            begin += count[d];
        }
    }

  private:
    static constexpr int kDigitBits = 8;
    static constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
    /// Widest digit of the scratch passes: 2^11 counts for 2^13 keys.
    static constexpr int kMaxScratchBits = 11;
    /// Below this many keys an insertion sort beats a digit histogram.
    static constexpr std::size_t kSmall = 16;

    /// Sorts n <= half_ samples through the scratch: their keys go in,
    /// are radix-sorted there, and come back out.
    void
    sort_in_scratch(SampleIter first, std::size_t n)
    {
        if (n < 2)
            return;
        std::uint64_t* keys = keys_.get();
        SampleIter it = first;
        for (std::size_t i = 0; i < n; ++i, ++it)
            keys[i] = key_of(*it);
        sort_keys(keys, keys + half_, n);
        it = first;
        for (std::size_t i = 0; i < n; ++i, ++it)
            *it = value_of(keys[i]);
    }

    /// MSD radix sort of keys[0, n) through tmp[0, n). Each pass buckets
    /// the keys by their highest varying bits, so bits every key shares
    /// cost nothing, and takes about log2(n) - 2 of them, so the buckets
    /// it leaves hold a few keys each.
    static void
    sort_keys(std::uint64_t* keys, std::uint64_t* tmp, std::size_t n)
    {
        if (n < kSmall) {
            for (std::size_t i = 1; i < n; ++i) {
                const std::uint64_t k = keys[i];
                std::size_t j = i;
                for (; j > 0 && keys[j - 1] > k; --j)
                    keys[j] = keys[j - 1];
                keys[j] = k;
            }
            return;
        }
        std::uint64_t all = ~std::uint64_t{0};
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < n; ++i) {
            all &= keys[i];
            any |= keys[i];
        }
        if (all == any)
            return;
        const int varying = static_cast<int>(std::bit_width(all ^ any));
        const int bits = std::min({varying, kMaxScratchBits,
                                   static_cast<int>(std::bit_width(n)) - 2});
        const int shift = varying - bits;
        const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
        const std::size_t radix = std::size_t{1} << bits;
        // count[d] becomes the start of digit d's bucket, then, once the
        // keys are scattered, its end.
        std::array<std::uint16_t, std::size_t{1} << kMaxScratchBits> count;
        std::fill_n(count.begin(), radix, std::uint16_t{0});
        for (std::size_t i = 0; i < n; ++i)
            ++count[(keys[i] >> shift) & mask];
        std::uint16_t at = 0;
        for (std::size_t d = 0; d < radix; ++d)
            at = static_cast<std::uint16_t>(at + std::exchange(count[d], at));
        for (std::size_t i = 0; i < n; ++i)
            tmp[count[(keys[i] >> shift) & mask]++] = keys[i];
        std::copy(tmp, tmp + n, keys);
        std::size_t begin = 0;
        for (std::size_t d = 0; d < radix; ++d) {
            if (count[d] > begin + 1)
                sort_keys(keys + begin, tmp + begin, count[d] - begin);
            begin = count[d];
        }
    }

    std::size_t half_;
    std::unique_ptr<std::uint64_t[]> keys_;
};

} // namespace

void
LatencyRecorder::record(SimTime completion_time, Seconds latency)
{
    // Measurement window is (warmup_end, horizon]: the warmup instant
    // itself is excluded, matching the simulator's area accounting.
    if (completion_time <= warmup_end_)
        return;
    samples_.push_back(latency.seconds());
    sorted_ = false;
}

void
LatencyRecorder::seal()
{
    if (!sorted_) {
        if (samples_.size() > 1)
            TotalOrderSort(samples_.size())
                .sort(samples_.begin(), samples_.size());
        sorted_ = true;
    }
}

std::optional<Seconds>
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return std::nullopt;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return Seconds{sum / static_cast<double>(samples_.size())};
}

std::optional<Seconds>
LatencyRecorder::quantile(double q) const
{
    if (q < 0.0 || q > 1.0)
        throw std::invalid_argument("LatencyRecorder: quantile out of range");
    if (samples_.empty())
        return std::nullopt;
    if (!sorted_)
        throw std::logic_error(
            "LatencyRecorder: seal() before quantile reads (sorting under "
            "a const accessor was a data race for concurrent readers)");
    // Nearest rank: 1-based rank max(1, ceil(q * n)). The extremes are
    // handled exactly — q = 0 is the minimum and q = 1 the maximum by
    // definition, not by trusting ceil(q * n) to land on 0 or n.
    const auto n = samples_.size();
    if (q == 0.0)
        return Seconds{samples_.front()};
    if (q == 1.0)
        return Seconds{samples_.back()};
    // q * n computed in floating point can land one ulp above an exact
    // integer (0.07 * 100 = 7.000000000000001), and ceil() turns that ulp
    // into a whole off-by-one rank. Snap values within a few ulps of an
    // integer back onto it before taking the ceiling.
    const double scaled = q * static_cast<double>(n);
    const double floor_s = std::floor(scaled);
    const double snap =
        4.0 * std::numeric_limits<double>::epsilon() * scaled;
    const double rank_real =
        (scaled - floor_s <= snap) ? floor_s : floor_s + 1.0;
    auto rank = static_cast<std::size_t>(rank_real);
    rank = std::clamp<std::size_t>(rank, 1, n);
    return Seconds{samples_[rank - 1]};
}

std::optional<Seconds>
LatencyRecorder::max() const
{
    if (samples_.empty())
        return std::nullopt;
    if (!sorted_)
        throw std::logic_error(
            "LatencyRecorder: seal() before ordered reads");
    return Seconds{samples_.back()};
}

void
ThroughputMeter::record(SimTime completion_time, Bytes payload)
{
    if (completion_time <= warmup_end_)
        return;
    bytes_ += payload.bytes();
    ++requests_;
}

Bandwidth
ThroughputMeter::bandwidth(SimTime measure_end) const
{
    // Guard the divisor: measure_end <= warmup_end (zero-width or inverted
    // window) must yield 0, not inf/NaN.
    const double window = measure_end - warmup_end_;
    if (window <= 0.0)
        return Bandwidth{0.0};
    return Bandwidth::from_bytes_per_sec(bytes_ / window);
}

OpsRate
ThroughputMeter::rate(SimTime measure_end) const
{
    const double window = measure_end - warmup_end_;
    if (window <= 0.0)
        return OpsRate{0.0};
    return OpsRate{static_cast<double>(requests_) / window};
}

} // namespace lognic::sim
