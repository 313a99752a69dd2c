/**
 * @file
 * Execution tracing for the simulators — the "where did the time go"
 * counterpart of the analytical model's bottleneck attribution.
 *
 * The simulator emits *spans* (a packet waiting in a queue, an engine
 * serving a request), *counter samples* (queue depth, busy engines,
 * scheduler credits), *instants* (drops), and *async lifecycle markers*
 * (packet arrival → completion) into a TraceSink. The bundled
 * ChromeTraceWriter serializes them as Chrome trace-event JSON, which
 * Perfetto (https://ui.perfetto.dev) and chrome://tracing open directly.
 *
 * Overhead contract: tracing is strictly opt-in. With no sink attached
 * (`TraceOptions::sink == nullptr`, the default) the simulator's only cost
 * is a null-pointer test per hook site; no allocation, no RNG draw, no
 * change to event ordering. Simulation results are bit-identical with and
 * without a sink attached — the trace is a pure observer (pinned by the
 * obs test suite). Per-packet span volume is bounded by sampling: with
 * `sample_every == N` only every Nth generated packet carries lifecycle
 * spans; counter tracks are per-state-change and can be disabled
 * separately.
 */
#ifndef LOGNIC_OBS_TRACE_HPP_
#define LOGNIC_OBS_TRACE_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "lognic/core/units.hpp"
#include "lognic/io/json.hpp"

namespace lognic::obs {

/// Handle for a named track (a Chrome trace "thread" lane).
using TrackId = std::uint32_t;

/**
 * Receiver of trace events. Implementations must be cheap: the simulator
 * calls these from its hot path. All timestamps are simulated time.
 */
class TraceSink {
  public:
    virtual ~TraceSink() = default;

    /// Register a named track; returns its id. Idempotence is up to the
    /// caller (register each track once, at setup time).
    virtual TrackId register_track(const std::string& name) = 0;

    /// Complete span [start, start + duration) on @p track (ph "X").
    virtual void span(TrackId track, const std::string& name, Seconds start,
                      Seconds duration) = 0;

    /// Counter sample: @p series on @p track has @p value from @p t (ph "C").
    virtual void counter(TrackId track, const std::string& series, Seconds t,
                         double value) = 0;

    /// Instant event on @p track (ph "i").
    virtual void instant(TrackId track, const std::string& name,
                         Seconds t) = 0;

    /// Async span delimiters correlated by (@p name, @p id) (ph "b"/"e").
    /// Used for packet lifecycles, which hop across tracks.
    virtual void async_begin(std::uint64_t id, const std::string& name,
                             Seconds t) = 0;
    virtual void async_end(std::uint64_t id, const std::string& name,
                           Seconds t) = 0;
};

/// Simulator-side tracing knobs; carried inside sim::SimOptions.
struct TraceOptions {
    /// Non-owning; nullptr (default) disables tracing entirely. The sink
    /// must outlive the simulation.
    TraceSink* sink{nullptr};
    /// Every Nth generated packet carries lifecycle spans (1 = all).
    /// 0 suppresses per-packet spans, keeping only the per-vertex counter
    /// tracks (queue depth, busy engines, credits), which a sink always
    /// receives.
    std::uint64_t sample_every{1};

    bool enabled() const { return sink != nullptr; }
    /// True when packet @p id should carry lifecycle spans.
    bool sampled(std::uint64_t id) const
    {
        return sink != nullptr && sample_every != 0
            && id % sample_every == 0;
    }
};

/**
 * Chrome trace-event / Perfetto-compatible JSON writer.
 *
 * Buffers events in memory; `json()` produces the standard
 * `{"traceEvents": [...], "displayTimeUnit": "ms"}` document with
 * process/thread metadata naming every registered track. Timestamps are
 * emitted in microseconds, as the format requires.
 */
class ChromeTraceWriter final : public TraceSink {
  public:
    TrackId register_track(const std::string& name) override;
    void span(TrackId track, const std::string& name, Seconds start,
              Seconds duration) override;
    void counter(TrackId track, const std::string& series, Seconds t,
                 double value) override;
    void instant(TrackId track, const std::string& name, Seconds t) override;
    void async_begin(std::uint64_t id, const std::string& name,
                     Seconds t) override;
    void async_end(std::uint64_t id, const std::string& name,
                   Seconds t) override;

    std::size_t event_count() const { return events_.size(); }
    std::size_t track_count() const { return tracks_.size(); }

    /// The full trace-event document.
    io::Json json() const;
    /// Serialized document (compact by default; trace files get large).
    std::string dump(int indent = -1) const;
    /// Write the document to @p out. @throws std::runtime_error on failure.
    void write(std::ostream& out, int indent = -1) const;

  private:
    enum class Phase : std::uint8_t {
        kComplete,   ///< "X"
        kCounter,    ///< "C"
        kInstant,    ///< "i"
        kAsyncBegin, ///< "b"
        kAsyncEnd,   ///< "e"
    };
    struct Event {
        Phase phase;
        TrackId track{0};
        std::string name;
        double ts_us{0.0};
        double dur_us{0.0};   ///< kComplete only
        double value{0.0};    ///< kCounter only
        std::uint64_t id{0};  ///< async only
    };

    std::vector<std::string> tracks_;
    std::vector<Event> events_;
};

} // namespace lognic::obs

#endif // LOGNIC_OBS_TRACE_HPP_
