#include "lognic/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace lognic::sim {

void
EventQueue::reject_past()
{
    throw std::invalid_argument("EventQueue: scheduling into the past");
}

inline void
EventQueue::push_heap(SimTime when, std::uint64_t seq, Action* action)
{
    // Hole-insertion sift-up: append a slot, move parents down into the
    // hole while they sort later than the new key, write the key once.
    const Key key{when, seq, action};
    heap_.push_back(key);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!earlier(key, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

inline EventQueue::Key
EventQueue::pop_heap()
{
    const Key top = heap_.front();
    // Field by field: the last key was often stored a moment ago as three
    // scalars, and one wider load would wait for those stores to retire.
    Key last;
    last.when = heap_.back().when;
    last.seq = heap_.back().seq;
    last.action = heap_.back().action;
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Hole-insertion sift-down: the root hole descends toward the
        // earlier child until `last` fits, then `last` is written once.
        std::size_t hole = 0;
        for (;;) {
            std::size_t child = 2 * hole + 1;
            if (child >= n)
                break;
            if (child + 1 < n) // pick the earlier sibling without a branch
                child += earlier(heap_[child + 1], heap_[child]);
            if (!earlier(heap_[child], last))
                break;
            heap_[hole] = heap_[child];
            hole = child;
        }
        heap_[hole] = last;
    }
    return top;
}

inline void
EventQueue::push_lane(SimTime when, std::uint64_t seq, Action* action)
{
    if (lane_count_ == lane_.size()) {
        // Full (or never used): double the ring, unrolling it so the
        // oldest event lands at index 0.
        std::vector<Key> grown(std::max<std::size_t>(16, 2 * lane_.size()));
        for (std::size_t i = 0; i < lane_count_; ++i)
            grown[i] = lane_[(lane_head_ + i) & lane_mask_];
        lane_ = std::move(grown);
        lane_head_ = 0;
        lane_mask_ = lane_.size() - 1;
    }
    lane_[(lane_head_ + lane_count_) & lane_mask_] = Key{when, seq, action};
    ++lane_count_;
}

void
EventQueue::enqueue(SimTime when, std::uint64_t seq, Action* action)
{
    // The lane holds only events due now, all with smaller seqs than this
    // one, so appending an event for now() keeps it in (when, seq) order.
    if (when == now_)
        push_lane(when, seq, action);
    else
        push_heap(when, seq, action);
}

void
EventQueue::for_each_pending(
    const std::function<void(SimTime, std::uint64_t, const Action&)>& fn) const
{
    for (const Key& key : heap_)
        fn(key.when, key.seq, *key.action);
    for (std::size_t i = 0; i < lane_count_; ++i) {
        const Key& key = lane_[(lane_head_ + i) & lane_mask_];
        fn(key.when, key.seq, *key.action);
    }
}

void
EventQueue::restore_clock(SimTime now, std::uint64_t next_seq,
                          std::uint64_t executed)
{
    if (!empty())
        throw std::logic_error(
            "EventQueue::restore_clock: calendar not empty");
    now_ = now;
    next_seq_ = next_seq;
    executed_ = executed;
}

void
EventQueue::restore_event(SimTime when, std::uint64_t seq,
                          const Action& action)
{
    if (seq >= next_seq_)
        throw std::logic_error(
            "EventQueue::restore_event: seq from the future");
    if (!(when >= now_))
        throw std::logic_error(
            "EventQueue::restore_event: event before now");
    push_heap(when, seq, pool_.acquire(action));
}

void
EventQueue::dispatch(Next from)
{
    Key key;
    if (from == Next::kLane) {
        key = lane_[lane_head_];
        lane_head_ = (lane_head_ + 1) & lane_mask_;
        --lane_count_;
    } else {
        key = pop_heap();
    }
    now_ = key.when;
    ++executed_;
    // Run the action where it lies: the pool never moves it, and its slot
    // is freed only after the call, so the events it schedules take
    // other slots. (A copy would read the closure with wide loads, which
    // stall on the narrow stores that wrote it when it was scheduled a
    // moment ago.)
    (*key.action)();
    pool_.release(key.action);
}

void
EventQueue::run_until(SimTime horizon)
{
    for (Next next; (next = next_due(horizon)) != Next::kNone;)
        dispatch(next);
    if (now_ < horizon)
        now_ = horizon;
}

RunOutcome
EventQueue::run_until(SimTime horizon, const RunLimits& limits)
{
    const std::uint64_t interval = std::max<std::uint64_t>(
        limits.check_interval, 1);
    std::uint64_t dispatched = 0;
    for (Next next; (next = next_due(horizon)) != Next::kNone; ++dispatched) {
        if (limits.max_events != 0 && dispatched >= limits.max_events)
            return RunOutcome::kEventBudget;
        if (limits.should_abort && dispatched % interval == 0
            && limits.should_abort())
            return RunOutcome::kAborted;
        dispatch(next);
    }
    const RunOutcome outcome =
        empty() ? RunOutcome::kDrained : RunOutcome::kHorizon;
    if (now_ < horizon)
        now_ = horizon;
    return outcome;
}

} // namespace lognic::sim
