#include "lognic/runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lognic::runner {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::atomic<int>> hits(257);
        parallel_for(hits.size(), threads,
                     [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, SerialPathRunsInOrderOnCaller)
{
    std::vector<std::size_t> order;
    const auto caller = std::this_thread::get_id();
    bool same_thread = true;
    parallel_for(8, 1, [&](std::size_t i) {
        order.push_back(i);
        same_thread = same_thread && std::this_thread::get_id() == caller;
    });
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
    EXPECT_TRUE(same_thread);
}

TEST(ParallelFor, ZeroIterationsIsNoop)
{
    parallel_for(0, 4, [](std::size_t) { FAIL() << "body ran"; });
}

TEST(ParallelFor, RethrowsFirstException)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_THROW(
            parallel_for(64, threads,
                         [](std::size_t i) {
                             if (i == 5)
                                 throw std::runtime_error("boom");
                         }),
            std::runtime_error);
    }
    // The lowest failing index's exception, as a serial run throws it —
    // not whichever body threw first: index 5 sleeps before it throws, so
    // with several threads index 40 usually throws first.
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
        for (int run = 0; run < 20; ++run) {
            try {
                parallel_for(64, threads, [](std::size_t i) {
                    if (i == 5) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        throw std::runtime_error("index 5");
                    }
                    if (i == 40)
                        throw std::runtime_error("index 40");
                });
                ADD_FAILURE() << "nothing thrown at " << threads
                              << " threads";
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "index 5")
                    << threads << " threads, run " << run;
            }
        }
    }
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    parallel_for(hits.size(), 16, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

} // namespace
} // namespace lognic::runner
