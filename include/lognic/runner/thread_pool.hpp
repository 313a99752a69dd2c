/**
 * @file
 * A deterministic parallel-for.
 *
 * Deliberately work-stealing-free: the workers claim indices in increasing
 * order from one shared counter. Simulation replications are coarse
 * (milliseconds each), so counter contention is negligible and the simple
 * design keeps the scheduling reasoning — and therefore the determinism
 * argument — trivial: a body's *result* may only depend on its index,
 * never on which worker ran it or in what order.
 */
#ifndef LOGNIC_RUNNER_THREAD_POOL_HPP_
#define LOGNIC_RUNNER_THREAD_POOL_HPP_

#include <cstddef>
#include <functional>

namespace lognic::runner {

/// @p threads, or std::thread::hardware_concurrency() (at least 1) when
/// @p threads is 0 — what a `--threads 0` flag asks for.
std::size_t resolve_threads(std::size_t threads);

/**
 * Run body(0), ..., body(n-1) across @p threads threads; threads <= 1 runs
 * serially on the caller. Each call starts min(threads, n) workers and
 * joins them before it returns. Indices are claimed in increasing order
 * from a shared counter, so *which* thread runs an index is
 * nondeterministic — bodies must write results keyed by their index and
 * depend only on it.
 *
 * When bodies throw, the exception of the lowest failing index is rethrown
 * on the caller once every worker has finished: what a serial run would
 * have thrown, at any thread count and whichever body threw first in wall
 * time. Every index below the lowest failure runs; an index above the
 * lowest failure seen so far is skipped.
 */
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_THREAD_POOL_HPP_
