/**
 * @file
 * Measurement helpers: latency distributions and throughput meters with
 * warmup trimming.
 *
 * Warmup convention (applied uniformly across the sim): the measurement
 * window is the half-open interval (warmup_end, horizon] — a completion at
 * exactly `warmup_end` still belongs to the warmup and is discarded, while
 * one at exactly `horizon` is counted. The per-vertex area accounting in
 * the simulator uses the same boundaries.
 */
#ifndef LOGNIC_SIM_STATS_HPP_
#define LOGNIC_SIM_STATS_HPP_

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "lognic/core/units.hpp"
#include "lognic/sim/event_queue.hpp"

namespace lognic::sim {

/**
 * Collects per-request latencies; samples at or before the warmup cut are
 * dropped.
 *
 * Threading contract — record, seal, then read:
 *
 *  1. a single writer calls record() while the simulation runs;
 *  2. that writer calls seal() exactly when recording is done — the one
 *     place the sample buffer is sorted;
 *  3. after seal(), every accessor is a pure const read, safe to call
 *     concurrently from any number of threads (replication aggregators
 *     read p50/p99 of finished runs in parallel).
 *
 * quantile()/p50()/p99()/max() on an unsealed, non-empty recorder throw
 * std::logic_error rather than sorting behind a `const` facade — the
 * lazy-sort-under-const scheme this replaces was a data race the moment
 * two readers touched the same recorder. mean() and count() do not need
 * sorted data and work in either phase. record() after seal() reopens the
 * write phase (and requires a new seal() before ordered reads).
 *
 * Empty-set behaviour is explicit: every statistic returns `std::nullopt`
 * when no sample survived the warmup trim. Callers that aggregate across
 * replications (the runner's Replicator) must check for absence rather
 * than averaging in a fake 0.
 *
 * Samples live in chunked storage (std::deque) that never reallocates. A
 * doubling vector briefly holds three times its samples' bytes while it
 * copies into a buffer twice the size, and simulations growing at once on
 * worker threads stack those peaks.
 */
class LatencyRecorder {
  public:
    explicit LatencyRecorder(SimTime warmup_end = 0.0)
        : warmup_end_(warmup_end)
    {
    }

    void record(SimTime completion_time, Seconds latency);

    /**
     * End the write phase: sort the samples once. Idempotent. After this,
     * all accessors are thread-safe const reads until the next record().
     */
    void seal();

    bool sealed() const { return sorted_; }

    std::size_t count() const { return samples_.size(); }
    std::optional<Seconds> mean() const;
    /**
     * Nearest-rank quantile on the sorted samples: for n samples, returns
     * the value at 1-based rank max(1, ceil(q * n)). q = 0 and q = 1 are
     * handled exactly as the minimum (rank 1) and maximum (rank n), and
     * the interior rank computation snaps q * n values that floating
     * point put one ulp past an exact integer back onto it (0.07 * 100
     * must mean rank 7, not 8). With a single sample every q returns that
     * sample.
     * @throws std::invalid_argument when q is outside [0, 1].
     * @throws std::logic_error when samples exist but seal() has not been
     *         called since the last record().
     */
    std::optional<Seconds> quantile(double q) const;
    std::optional<Seconds> p50() const { return quantile(0.50); }
    std::optional<Seconds> p99() const { return quantile(0.99); }
    /// @throws std::logic_error on an unsealed, non-empty recorder.
    std::optional<Seconds> max() const;

    /// Raw samples in their current order (insertion order before seal(),
    /// sorted after). Checkpointing captures them pre-seal: mean() is a
    /// float sum over this order, so a restored recorder must replay the
    /// exact insertion order to stay bit-identical.
    const std::deque<double>& samples() const { return samples_; }

    /// Replace the recorder's state wholesale (checkpoint restore).
    void restore(std::deque<double> samples, bool sealed)
    {
        samples_ = std::move(samples);
        sorted_ = sealed;
    }

  private:
    SimTime warmup_end_;
    std::deque<double> samples_; ///< seconds; sorted by seal()
    bool sorted_{false};
};

/**
 * Counts events inside the measurement window (warmup_end, horizon] —
 * the same half-open convention every other recorder uses. Used for drop
 * and offered-load accounting so drop_rate compares drops and arrivals
 * over the *same* window (counting warmup drops while discarding warmup
 * completions biases drop_rate high at short horizons).
 *
 * Both window edges are enforced: an event at or before `warmup_end` or
 * after `horizon` is ignored, so drain-time completions past the horizon
 * cannot inflate drop/offered-load accounting. The horizon defaults to
 * +infinity for callers that only need the warmup cut.
 */
class WindowedCounter {
  public:
    explicit WindowedCounter(
        SimTime warmup_end = 0.0,
        SimTime horizon = std::numeric_limits<SimTime>::infinity())
        : warmup_end_(warmup_end), horizon_(horizon)
    {
    }

    /// Count the event iff it falls inside (warmup_end, horizon].
    void record(SimTime t)
    {
        if (t > warmup_end_ && t <= horizon_)
            ++count_;
    }

    std::uint64_t count() const { return count_; }

    /// Replace the count wholesale (checkpoint restore).
    void restore(std::uint64_t count) { count_ = count; }

  private:
    SimTime warmup_end_;
    SimTime horizon_;
    std::uint64_t count_{0};
};

/// Counts delivered bytes/requests after warmup; yields rates.
class ThroughputMeter {
  public:
    explicit ThroughputMeter(SimTime warmup_end = 0.0)
        : warmup_end_(warmup_end)
    {
    }

    void record(SimTime completion_time, Bytes payload);

    std::uint64_t requests() const { return requests_; }
    Bytes total() const { return Bytes{bytes_}; }

    /**
     * Delivered bandwidth over (warmup_end, measure_end]. A zero-width or
     * inverted window (measure_end <= warmup_end, e.g. a run truncated
     * inside its warmup) yields a safe 0 rate, never inf/NaN — nothing can
     * have been recorded in such a window, so 0 is also the honest value.
     */
    Bandwidth bandwidth(SimTime measure_end) const;
    /// Delivered request rate over the same window; same zero-window rule.
    OpsRate rate(SimTime measure_end) const;

    /// Replace the totals wholesale (checkpoint restore). @p bytes is the
    /// running double sum, restored bit-exactly.
    void restore(double bytes, std::uint64_t requests)
    {
        bytes_ = bytes;
        requests_ = requests;
    }

  private:
    SimTime warmup_end_;
    double bytes_{0.0};
    std::uint64_t requests_{0};
};

} // namespace lognic::sim

#endif // LOGNIC_SIM_STATS_HPP_
