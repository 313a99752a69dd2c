#include "lognic/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include "heap_counter.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

namespace lognic::sim {
namespace {

// The hot-path contract, checked at compile time: actions are trivially
// copyable so the action pool can move them as raw bytes, and the
// canonical simulator capture shape (this + packet pointer + id + scalars)
// fits the inline budget.
static_assert(std::is_trivially_copyable_v<EventQueue::Action>,
              "calendar actions must move as raw bytes");
static_assert(std::is_trivially_destructible_v<EventQueue::Action>,
              "popping an event must not run destructors");

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(3.0, [&order] { order.push_back(3); });
    q.schedule_at(1.0, [&order] { order.push_back(1); });
    q.schedule_at(2.0, [&order] { order.push_back(2); });
    q.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule_at(1.0, [&order, i] { order.push_back(i); });
    q.run_until(2.0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoTiesSurviveInterleavedPops)
{
    // Tie-break must hold even when equal-time events are scheduled across
    // intervening pops (so their seq values are not contiguous) and the
    // heap has been reshaped in between.
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(5.0, [&order] { order.push_back(0); });
    q.schedule_at(1.0, [&order, &q] {
        order.push_back(-1);
        q.schedule_at(5.0, [&order] { order.push_back(2); });
    });
    q.schedule_at(5.0, [&order] { order.push_back(1); });
    q.schedule_at(2.0, [&order, &q] {
        order.push_back(-2);
        q.schedule_at(5.0, [&order] { order.push_back(3); });
    });
    q.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{-1, -2, 0, 1, 2, 3}));
}

TEST(EventQueue, HorizonStopsExecution)
{
    EventQueue q;
    int ran = 0;
    q.schedule_at(1.0, [&ran] { ++ran; });
    q.schedule_at(5.0, [&ran] { ++ran; });
    q.run_until(2.0);
    EXPECT_EQ(ran, 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    q.run_until(10.0);
    EXPECT_EQ(ran, 2);
}

/// Trivially copyable self-rescheduling functor: the idiom event closures
/// use now that the calendar rejects std::function-style captures.
struct Ticker {
    EventQueue* q;
    int* count;
    void operator()() const
    {
        ++*count;
        if (*count < 10)
            q->schedule_in(1.0, *this);
    }
};
static_assert(std::is_trivially_copyable_v<Ticker>);

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule_at(0.0, Ticker{&q, &count});
    q.run_until(100.0);
    EXPECT_EQ(count, 10);
    EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

TEST(EventQueue, SchedulingIntoThePastThrows)
{
    EventQueue q;
    q.schedule_at(5.0, [] {});
    q.run_until(5.0);
    EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, NanTimeThrows)
{
    // NaN fails every comparison, so a `when < now` test let it in, and a
    // NaN key broke the heap order: a run stopped with events pending.
    EventQueue q;
    int ran = 0;
    for (int i = 1; i <= 10; ++i)
        q.schedule_at(static_cast<double>(i), [&ran] { ++ran; });
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(q.schedule_at(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
    EXPECT_EQ(q.size(), 10u);
    EXPECT_EQ(q.next_seq(), 10u);
    EXPECT_EQ(q.run_until(100.0, RunLimits{}), RunOutcome::kDrained);
    EXPECT_EQ(ran, 10);
    EXPECT_TRUE(q.empty());

    // restore_event applies the same test.
    EventQueue r;
    r.restore_clock(1.0, 5, 0);
    EXPECT_THROW(r.restore_event(nan, 2, [] {}), std::logic_error);
    EXPECT_THROW(r.restore_event(0.5, 3, [] {}), std::logic_error);
    EXPECT_TRUE(r.empty());
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue q;
    double seen = -1.0;
    q.schedule_at(2.5, [&seen, &q] { seen = q.now(); });
    q.run_until(10.0);
    EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(EventQueue, SteadyStateSchedulingIsAllocationFree)
{
    // The tentpole property: after the calendar reaches its high-water
    // population once, scheduling and dispatching perform zero heap
    // allocations — actions live inline in the event record and the heap's
    // backing vector is already at capacity.
#ifdef LOGNIC_TEST_ASAN
    GTEST_SKIP() << "allocation counting is disabled under ASan "
                    "(interceptor pairing); see heap_counter.cpp";
#endif
    EventQueue q;
    std::uint64_t fired = 0;
    // Warm-up pass: grow the backing vector to 256 pending events.
    for (int i = 0; i < 256; ++i)
        q.schedule_at(1.0 + 0.001 * i, [&fired] { ++fired; });
    q.run_until(10.0);
    ASSERT_EQ(fired, 256u);

    const std::uint64_t before = test::heap_allocations();
    for (int i = 0; i < 256; ++i)
        q.schedule_at(20.0 + 0.001 * (i % 13), [&fired] { ++fired; });
    q.run_until(30.0);
    const std::uint64_t after = test::heap_allocations();
    EXPECT_EQ(fired, 512u);
    EXPECT_EQ(after, before)
        << "steady-state schedule/dispatch touched the heap";

    // Zero-delay churn: each event at a new instant fans out 64 events for
    // that same instant, which all wait in the lane. Two warm-up rounds
    // grow the lane and the action pool; later rounds must reuse them.
    struct Burst {
        EventQueue* q;
        std::uint64_t* fired;
        void operator()() const
        {
            for (int i = 0; i < 64; ++i)
                q->schedule_in(0.0, [fired = fired] { ++*fired; });
        }
    };
    for (int round = 0; round < 2; ++round) {
        q.schedule_at(40.0 + round, Burst{&q, &fired});
        q.run_until(40.5 + round);
    }
    ASSERT_EQ(fired, 512u + 128u);
    const std::uint64_t lane_before =
        test::heap_allocations();
    for (int round = 2; round < 10; ++round) {
        q.schedule_at(40.0 + round, Burst{&q, &fired});
        q.run_until(40.5 + round);
    }
    const std::uint64_t lane_after =
        test::heap_allocations();
    EXPECT_EQ(fired, 512u + 640u);
    EXPECT_EQ(lane_after, lane_before)
        << "steady-state zero-delay scheduling touched the heap";
}

TEST(EventQueue, RunLimitsDrainedAndHorizonOutcomes)
{
    EventQueue q;
    int ran = 0;
    q.schedule_at(1.0, [&ran] { ++ran; });
    q.schedule_at(9.0, [&ran] { ++ran; });
    // Horizon cuts the run short with an event still pending.
    EXPECT_EQ(q.run_until(5.0, RunLimits{}), RunOutcome::kHorizon);
    EXPECT_EQ(ran, 1);
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
    // The calendar empties before the next horizon.
    EXPECT_EQ(q.run_until(50.0, RunLimits{}), RunOutcome::kDrained);
    EXPECT_EQ(ran, 2);
    EXPECT_DOUBLE_EQ(q.now(), 50.0);
}

TEST(EventQueue, RunLimitsEventBudgetStopsDeterministically)
{
    EventQueue q;
    int count = 0;
    q.schedule_at(0.0, Ticker{&q, &count}); // 10 self-rescheduled ticks
    RunLimits limits;
    limits.max_events = 4;
    EXPECT_EQ(q.run_until(100.0, limits), RunOutcome::kEventBudget);
    EXPECT_EQ(count, 4);
    // now() stays at the last executed event (tick #4 at t=3), NOT the
    // horizon, so callers can report how far the truncated run got.
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
    EXPECT_FALSE(q.empty());
    // The budget is per-call: a fresh call finishes the run.
    EXPECT_EQ(q.run_until(100.0, RunLimits{}), RunOutcome::kDrained);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunLimitsAbortStopsBetweenEvents)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 8; ++i)
        q.schedule_at(static_cast<double>(i), [&count] { ++count; });
    RunLimits limits;
    bool abort_now = false;
    limits.should_abort = [&abort_now] { return abort_now; };
    limits.check_interval = 1; // poll before every event
    EXPECT_EQ(q.run_until(100.0, limits), RunOutcome::kDrained);
    EXPECT_EQ(count, 8);

    for (int i = 0; i < 8; ++i)
        q.schedule_at(200.0 + static_cast<double>(i), [&count, &abort_now] {
            ++count;
            abort_now = count >= 11; // trip after the 3rd event of this batch
        });
    EXPECT_EQ(q.run_until(1000.0, limits), RunOutcome::kAborted);
    EXPECT_EQ(count, 11);
    EXPECT_DOUBLE_EQ(q.now(), 202.0);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, HeapStressMatchesSortedOrder)
{
    // Many events with random times (and deliberate duplicates) must run
    // in exact (time, seq) order — the determinism contract every seeded
    // replication relies on.
    EventQueue q;
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int> coarse(0, 49);
    std::vector<std::pair<double, int>> expected;
    std::vector<std::pair<double, int>> actual;
    for (int i = 0; i < 2000; ++i) {
        const double when = static_cast<double>(coarse(rng)) * 0.125;
        expected.emplace_back(when, i);
        q.schedule_at(when, [&actual, when, i] {
            actual.emplace_back(when, i);
        });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    q.run_until(1000.0);
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(q.executed(), 2000u);
}

} // namespace
} // namespace lognic::sim
