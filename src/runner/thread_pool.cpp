#include "lognic/runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace lognic::runner {

std::size_t
resolve_threads(std::size_t threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    threads = resolve_threads(threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait_idle()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    if (first_error_)
        std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void
ThreadPool::worker_loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stop_ and drained
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !first_error_)
            first_error_ = error;
        --active_;
        if (queue_.empty() && active_ == 0)
            idle_cv_.notify_all();
    }
}

void
parallel_for(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto drain = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                next.store(n); // abandon remaining indices
                return;
            }
        }
    };

    ThreadPool pool(std::min(threads, n));
    for (std::size_t w = 0; w < pool.size(); ++w)
        pool.submit(drain);
    pool.wait_idle();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace lognic::runner
