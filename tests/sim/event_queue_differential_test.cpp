/**
 * @file
 * Differential test of the event calendar: randomized branching processes
 * with zero-delay events, heavy same-time ties, budget and abort stops, and
 * restored events, checked against a reference calendar that stable-sorts
 * its pending events by (when, seq) before every dispatch.
 */
#include "lognic/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "lognic/runner/seed.hpp"

namespace lognic::sim {
namespace {

/**
 * The reference: pending events in a plain vector, stable-sorted by
 * (when, seq) before every dispatch. Slow and obviously right.
 */
class ReferenceCalendar {
  public:
    std::uint64_t next_seq() const { return next_seq_; }

    std::uint64_t schedule_in(double delay, std::function<void()> fn)
    {
        pending_.push_back({now_ + delay, next_seq_, std::move(fn)});
        return next_seq_++;
    }

    /// Insert an event with a given seq (restore_event's contract).
    void insert(double when, std::uint64_t seq, std::function<void()> fn)
    {
        pending_.push_back({when, seq, std::move(fn)});
    }

    void restore_clock(double now, std::uint64_t next_seq)
    {
        now_ = now;
        next_seq_ = next_seq;
    }

    void run_until(double horizon)
    {
        for (;;) {
            std::stable_sort(pending_.begin(), pending_.end(),
                             [](const Pending& a, const Pending& b) {
                                 return a.when != b.when ? a.when < b.when
                                                         : a.seq < b.seq;
                             });
            if (pending_.empty() || pending_.front().when > horizon)
                break;
            Pending next = std::move(pending_.front());
            pending_.erase(pending_.begin());
            now_ = next.when;
            next.fn();
        }
        now_ = std::max(now_, horizon);
    }

  private:
    struct Pending {
        double when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    std::vector<Pending> pending_;
    double now_{0.0};
    std::uint64_t next_seq_{0};
};

/// Delay of a spawned event: a third are zero (the lane), most others are
/// multiples of 1/4 (exact binary fractions, so equal times are common),
/// and a few are irregular.
double
spawn_delay(std::uint64_t r)
{
    switch (r % 8) {
      case 0:
      case 1:
      case 2:
        return 0.0;
      case 3:
      case 4:
        return 0.25 * static_cast<double>((r >> 8) % 4 + 1);
      case 5:
        return 1.0;
      default:
        return static_cast<double>((r >> 8) % 1000) / 997.0;
    }
}

/**
 * A branching process on calendar Q: each event records its seq and
 * schedules 0, 1, 1 or 2 children whose delays depend only on the
 * parent's seq. Two calendars that dispatch in the same order therefore
 * schedule the same events with the same seqs; one wrong pop diverges.
 */
template <typename Q>
struct Branching {
    Q q;
    std::uint64_t salt;
    std::uint64_t spawn_budget;
    std::vector<std::uint64_t> order; ///< seqs in dispatch order
    std::size_t scheduled{0};

    void spawn(std::uint64_t parent)
    {
        std::uint64_t r = runner::splitmix64_mix(parent ^ salt);
        const int children = static_cast<int>(r % 4) == 0
            ? 0
            : (static_cast<int>(r % 4) == 3 ? 2 : 1);
        for (int i = 0; i < children && spawn_budget > 0; ++i) {
            r = runner::splitmix64_mix(r);
            --spawn_budget;
            schedule(spawn_delay(r));
        }
    }

    void schedule(double delay)
    {
        const std::uint64_t seq = q.next_seq();
        Branching* self = this;
        const std::uint64_t got = q.schedule_in(delay, [self, seq] {
            self->order.push_back(seq);
            self->spawn(seq);
        });
        EXPECT_EQ(got, seq);
        ++scheduled;
    }

    /// Seed the process with @p roots events spread over [0, 2).
    void start(int roots)
    {
        for (int i = 0; i < roots; ++i)
            schedule(spawn_delay(runner::splitmix64_mix(salt + i)) * 2.0);
    }
};

std::vector<std::uint64_t>
reference_order(std::uint64_t salt, int roots, std::uint64_t budget)
{
    Branching<ReferenceCalendar> ref{{}, salt, budget, {}};
    ref.start(roots);
    ref.q.run_until(std::numeric_limits<double>::infinity());
    EXPECT_EQ(ref.order.size(), ref.scheduled);
    return ref.order;
}

TEST(EventQueueDifferential, MatchesStableSortedReference)
{
    for (const std::uint64_t salt : {1u, 2u, 3u, 4u, 5u}) {
        const std::vector<std::uint64_t> expected =
            reference_order(salt, 40, 6000);
        Branching<EventQueue> sim{{}, salt, 6000, {}};
        sim.start(40);
        EXPECT_EQ(sim.q.size(), 40u);
        sim.q.run_until(std::numeric_limits<double>::infinity());
        EXPECT_EQ(sim.order, expected) << "salt " << salt;
        EXPECT_TRUE(sim.q.empty());
        EXPECT_EQ(sim.q.size(), 0u);
        EXPECT_EQ(sim.q.executed(), expected.size());
    }
}

TEST(EventQueueDifferential, BudgetStopsResumeInReferenceOrder)
{
    // Stops every 7 events land mid-instant over and over, with events for
    // that instant still in the lane; the resumed runs must continue the
    // reference order, and size() must count the lane.
    const std::vector<std::uint64_t> expected = reference_order(11, 30, 4000);
    Branching<EventQueue> sim{{}, 11, 4000, {}};
    sim.start(30);
    RunLimits limits;
    limits.max_events = 7;
    const double inf = std::numeric_limits<double>::infinity();
    int stops = 0;
    while (sim.q.run_until(inf, limits) == RunOutcome::kEventBudget) {
        ++stops;
        ASSERT_EQ(sim.q.size(), sim.scheduled - sim.order.size());
        ASSERT_FALSE(sim.q.empty());
        ASSERT_EQ(sim.q.executed(), sim.order.size());
    }
    EXPECT_GT(stops, 100);
    EXPECT_EQ(sim.order, expected);
    EXPECT_TRUE(sim.q.empty());
}

TEST(EventQueueDifferential, AbortStopsResumeInReferenceOrder)
{
    const std::vector<std::uint64_t> expected = reference_order(12, 30, 4000);
    Branching<EventQueue> sim{{}, 12, 4000, {}};
    sim.start(30);
    RunLimits limits;
    limits.check_interval = 1;
    std::size_t polls = 0;
    limits.should_abort = [&polls] { return ++polls % 5 == 0; };
    const double inf = std::numeric_limits<double>::infinity();
    int aborts = 0;
    while (sim.q.run_until(inf, limits) == RunOutcome::kAborted) {
        ++aborts;
        ASSERT_EQ(sim.q.size(), sim.scheduled - sim.order.size());
    }
    EXPECT_GT(aborts, 100);
    EXPECT_EQ(sim.order, expected);
    EXPECT_TRUE(sim.q.empty());
}

TEST(EventQueueDifferential, RestoreEventIntoNonEmptyLane)
{
    // After restore_clock, fill the lane with events for now(), then
    // restore events with older seqs at now() and later: they go to the
    // heap, and dispatch must still merge everything in (when, seq) order.
    std::mt19937_64 rng(21);
    for (int trial = 0; trial < 50; ++trial) {
        const double now = 3.0;
        const std::uint64_t base = 1000;
        EventQueue q;
        ReferenceCalendar ref;
        q.restore_clock(now, base, 0);
        ref.restore_clock(now, base);
        std::vector<std::uint64_t> got;
        std::vector<std::uint64_t> want;
        std::vector<std::uint64_t> free_seqs(base);
        for (std::uint64_t s = 0; s < base; ++s)
            free_seqs[s] = s;
        std::shuffle(free_seqs.begin(), free_seqs.end(), rng);
        std::size_t pending = 0;
        for (int op = 0; op < 60; ++op) {
            const auto kind = rng() % 3;
            if (kind == 0) { // a new event for now(): the lane
                const std::uint64_t seq = q.schedule_in(
                    0.0, [&got, s = q.next_seq()] { got.push_back(s); });
                ref.schedule_in(0.0, [&want, seq] { want.push_back(seq); });
            } else { // a restored event with an older seq
                const double when = kind == 1
                    ? now
                    : now + 0.5 * static_cast<double>(rng() % 3);
                const std::uint64_t seq = free_seqs.back();
                free_seqs.pop_back();
                q.restore_event(when, seq, [&got, seq] { got.push_back(seq); });
                ref.insert(when, seq, [&want, seq] { want.push_back(seq); });
            }
            ++pending;
            ASSERT_EQ(q.size(), pending);
        }
        q.run_until(10.0);
        ref.run_until(10.0);
        EXPECT_EQ(got, want) << "trial " << trial;
        EXPECT_EQ(got.size(), pending);
        EXPECT_TRUE(q.empty());
    }
}

} // namespace
} // namespace lognic::sim
