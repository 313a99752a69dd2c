/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal calendar: schedule callables at absolute simulated times and
 * run until a horizon. Ties are broken by insertion order (FIFO), which
 * keeps component behaviour deterministic for a fixed seed.
 *
 * Hot-path memory model (see DESIGN.md §10): the calendar is built to be
 * allocation-free in steady state, and to move as few bytes per event as
 * it can.
 *
 *  - Actions are `InlineAction`s — typed, small-buffer-optimized callables
 *    (64 bytes) built in place in a `Slab` pool. Its chunks never move and
 *    free slots are reused LIFO, so dispatch runs an action where it lies
 *    and frees the slot afterwards, and `schedule_at` never touches the
 *    heap once the pool has reached its high-water mark (closures that
 *    would not fit inline fail to compile).
 *  - The binary min-heap orders 24-byte keys `{when, seq, action}`, not
 *    the actions: a sift moves a third of the bytes an inline event
 *    record would. Sifting uses hole insertion: the displaced key travels
 *    down (or up) as a hole and the moving key is written exactly once.
 *  - An event scheduled for `now()` skips the heap and joins a FIFO lane.
 *    Every pending event has `when >= now()` and the new event has the
 *    largest seq so far, so the lane is already in `(when, seq)` order;
 *    dispatch takes the lesser of the lane front and the heap top. Time
 *    cannot advance while the lane holds an event, so the lane only ever
 *    holds events of the current instant. When it is empty, dispatch
 *    costs one predictable branch more than a heap alone.
 *  - All backing storage only ever grows; once a run reaches its
 *    high-water event population, scheduling is pointer-bump cheap.
 *
 * The (when, seq) strict total order makes dispatch order independent of
 * how the calendar stores its events, so these optimizations are
 * bit-identical to the previous representation by construction — the
 * golden sample paths (`SamplePathGolden.*`) and the calendar's
 * differential test against a stable sort are the oracles.
 */
#ifndef LOGNIC_SIM_EVENT_QUEUE_HPP_
#define LOGNIC_SIM_EVENT_QUEUE_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "lognic/sim/inline_action.hpp"
#include "lognic/sim/packet_slab.hpp"

namespace lognic::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Why a limited run_until() returned.
enum class RunOutcome {
    kDrained,     ///< the calendar emptied before the horizon
    kHorizon,     ///< simulated time reached the horizon
    kEventBudget, ///< RunLimits::max_events exhausted
    kAborted,     ///< RunLimits::should_abort returned true
};

/**
 * Watchdog limits for run_until. The event budget is deterministic (the
 * same run always stops at the same event); should_abort is for
 * wall-clock deadlines and is polled only every check_interval events to
 * keep clock reads off the hot path. (should_abort stays a std::function:
 * it is cold configuration state, not an event.)
 */
struct RunLimits {
    std::uint64_t max_events{0}; ///< events per run_until call; 0 = unlimited
    std::function<bool()> should_abort;
    std::uint64_t check_interval{4096};
};

class EventQueue {
  public:
    /// Inline typed action; converting from a closure is allocation-free.
    using Action = InlineAction;

    SimTime now() const { return now_; }

    /**
     * Schedule @p fn (a closure or an Action) at absolute time @p when
     * (>= now). Returns the sequence number assigned (the FIFO
     * tie-break) — checkpointing records it so a restored calendar
     * replays the exact (when, seq) dispatch order.
     *
     * Inline so that the closure is built straight into its pool slot.
     * @throws std::invalid_argument when @p when is before now() or NaN.
     */
    template <typename F>
    std::uint64_t schedule_at(SimTime when, F&& fn)
    {
        if (!(when >= now_)) // negated so that NaN is rejected too
            reject_past();
        // Built in its pool slot: assigning a temporary Action would
        // assemble the closure on the stack and copy it with wide loads
        // that stall on the narrow stores that just wrote it.
        Action* action = pool_.acquire(std::forward<F>(fn));
        const std::uint64_t seq = next_seq_++;
        enqueue(when, seq, action);
        return seq;
    }

    /// Schedule @p fn @p delay seconds from now.
    template <typename F>
    std::uint64_t schedule_in(SimTime delay, F&& fn)
    {
        return schedule_at(now_ + delay, std::forward<F>(fn));
    }

    /// Run events until the queue drains or simulated time passes @p horizon.
    void run_until(SimTime horizon);

    /**
     * run_until with a watchdog. On kEventBudget/kAborted, now() stays at
     * the last executed event's time (it does NOT advance to the horizon),
     * so callers can report how far the truncated run got.
     */
    RunOutcome run_until(SimTime horizon, const RunLimits& limits);

    /// Number of events executed so far.
    std::uint64_t executed() const { return executed_; }

    bool empty() const { return heap_.empty() && lane_count_ == 0; }

    /// Pending-event count (for snapshot sanity checks).
    std::size_t size() const { return heap_.size() + lane_count_; }

    /// Next sequence number to be assigned (checkpoint state).
    std::uint64_t next_seq() const { return next_seq_; }

    // --- snapshot restore (see lognic::ckpt) -----------------------------
    //
    // A calendar of InlineActions cannot be serialized directly (the
    // closures hold raw pointers into the simulator); instead the owner
    // records enough metadata to *reconstruct* each pending event and
    // replays it here. restore_clock() first, then one restore_event()
    // per pending event with its original (when, seq) pair: dispatch
    // order depends only on (when, seq), so the restored run is
    // bit-identical to the uninterrupted one.

    /**
     * Reset clock state on an empty calendar.
     * @throws std::logic_error when events are pending.
     */
    void restore_clock(SimTime now, std::uint64_t next_seq,
                       std::uint64_t executed);

    /**
     * Re-insert a pending event with its original sequence number. It
     * goes into the heap even when @p when is now(): its seq may be
     * older than events already in the lane.
     * @throws std::logic_error on seq >= next_seq(), or when @p when is
     *         before now() or NaN.
     */
    void restore_event(SimTime when, std::uint64_t seq, const Action& action);

  private:
    /// A pending event's place in the dispatch order, and its action.
    struct Key {
        SimTime when;
        std::uint64_t seq; ///< FIFO tie-break
        Action* action;
    };
    static_assert(sizeof(Key) == 24, "calendar keys must stay 24 bytes");

    /// Strict (time, seq) ordering: the heap's min is the next event.
    /// Bitwise, not short-circuit, so that it compiles without branches:
    /// which of two sibling keys is earlier is a coin flip that a branch
    /// would mispredict half the time.
    static bool earlier(const Key& a, const Key& b)
    {
        return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
    }

    /// Where the next event due by a horizon waits, if any.
    enum class Next : unsigned char { kNone, kHeap, kLane };

    Next next_due(SimTime horizon) const
    {
        if (lane_count_ == 0) // the common case: one predictable branch
            return !heap_.empty() && heap_.front().when <= horizon
                ? Next::kHeap
                : Next::kNone;
        const Key& front = lane_[lane_head_];
        if (!heap_.empty() && earlier(heap_.front(), front))
            return heap_.front().when <= horizon ? Next::kHeap : Next::kNone;
        return front.when <= horizon ? Next::kLane : Next::kNone;
    }

    [[noreturn]] static void reject_past();

    /// File a new event (its action already in the pool) in the lane or
    /// the heap. The key travels as scalars, so it is never copied through
    /// memory on the way in.
    void enqueue(SimTime when, std::uint64_t seq, Action* action);

    /// Hole-insertion sift-up of a new key.
    void push_heap(SimTime when, std::uint64_t seq, Action* action);

    /// Remove and return the minimum (hole-insertion sift-down).
    Key pop_heap();

    void push_lane(SimTime when, std::uint64_t seq, Action* action);

    /// Pop the next event from @p from, advance the clock and run it.
    void dispatch(Next from);

    std::vector<Key> heap_; ///< binary min-heap by (when, seq)
    /// Ring buffer of events scheduled for now(), oldest at lane_head_;
    /// once used, its size is a power of two, lane_mask_ + 1.
    std::vector<Key> lane_;
    std::size_t lane_mask_{0};
    std::size_t lane_head_{0};
    std::size_t lane_count_{0};
    /// Pending actions. Chunks never move and freed slots are reused
    /// LIFO, so an action runs where it lies (see dispatch()).
    Slab<Action> pool_{64};
    SimTime now_{0.0};
    std::uint64_t next_seq_{0};
    std::uint64_t executed_{0};
};

} // namespace lognic::sim

#endif // LOGNIC_SIM_EVENT_QUEUE_HPP_
