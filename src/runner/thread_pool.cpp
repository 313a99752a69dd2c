#include "lognic/runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lognic::runner {

std::size_t
resolve_threads(std::size_t threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallel_for(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)>& body)
{
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> lowest{n}; ///< lowest failing index so far
    std::exception_ptr lowest_error;    ///< its exception, under error_mu
    std::mutex error_mu;
    auto drain = [&] {
        // Claims only increase, so once one is above the lowest failure,
        // so is every later one.
        for (std::size_t i; (i = next.fetch_add(1)) < n && i < lowest;) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (i < lowest) {
                    lowest = i;
                    lowest_error = std::current_exception();
                }
            }
        }
    };
    {
        const std::size_t count = std::min(threads, n);
        std::vector<std::jthread> workers;
        workers.reserve(count);
        for (std::size_t w = 0; w < count; ++w)
            workers.emplace_back(drain);
    } // the workers join here
    if (lowest_error)
        std::rethrow_exception(lowest_error);
}

} // namespace lognic::runner
