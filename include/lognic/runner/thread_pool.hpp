/**
 * @file
 * Fixed-size thread pool and a deterministic parallel-for.
 *
 * Deliberately work-stealing-free: one shared FIFO task queue guarded by a
 * mutex. Simulation replications are coarse (milliseconds each), so queue
 * contention is negligible and the simple design keeps the scheduling
 * reasoning — and therefore the determinism argument — trivial: a task's
 * *result* may only depend on its arguments, never on which worker ran it
 * or in what order.
 */
#ifndef LOGNIC_RUNNER_THREAD_POOL_HPP_
#define LOGNIC_RUNNER_THREAD_POOL_HPP_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lognic::runner {

/// @p threads, or std::thread::hardware_concurrency() (at least 1) when
/// @p threads is 0 — what a `--threads 0` flag asks for.
std::size_t resolve_threads(std::size_t threads);

class ThreadPool {
  public:
    /// Spawn resolve_threads(@p threads) workers.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return workers_.size(); }

    /// Enqueue a task; it runs on some worker thread. Tasks may submit
    /// further tasks.
    void submit(std::function<void()> task);

    /**
     * Block until the queue is empty and every worker is idle. If any task
     * threw since the last wait, the *first* such exception is rethrown
     * here (and cleared) — a throw inside a worker never escapes the
     * worker thread, so it cannot std::terminate the process. Later
     * exceptions from the same batch are dropped.
     */
    void wait_idle();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::exception_ptr first_error_;
    std::size_t active_{0};
    bool stop_{false};
};

/**
 * Run body(0), ..., body(n-1) across @p threads threads; threads <= 1 runs
 * serially on the caller. Indices are claimed dynamically from a shared
 * counter, so *which* thread runs an index is nondeterministic — bodies
 * must write results keyed by their index and depend only on it. The first
 * exception thrown by any body is rethrown on the caller once all work has
 * drained (remaining indices are skipped).
 */
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_THREAD_POOL_HPP_
