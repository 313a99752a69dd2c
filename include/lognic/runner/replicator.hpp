/**
 * @file
 * Replicated simulation runs with deterministic seeding and confidence
 * intervals.
 *
 * A single DES run is one draw from the distribution the simulator
 * defines; figure-quality numbers need several independent replications
 * and an honest error bar. The Replicator derives one seed per replication
 * from a root seed (see seed.hpp), runs them — optionally in parallel —
 * and aggregates each metric into mean / sample stddev / 95% Student-t
 * confidence half-width.
 *
 * Replications that complete zero requests after warmup are *degenerate*:
 * their SimResult latency fields hold the documented empty-set sentinel
 * (0.0) and are excluded from the latency summaries instead of being
 * averaged in as real data. Throughput and drop-rate summaries still see
 * every replication (a run that delivered nothing genuinely measured zero
 * throughput).
 */
#ifndef LOGNIC_RUNNER_REPLICATOR_HPP_
#define LOGNIC_RUNNER_REPLICATOR_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lognic/sim/nic_simulator.hpp"

namespace lognic::runner {

/// Mean/spread summary of one metric across replications.
struct Summary {
    std::size_t n{0};     ///< samples aggregated
    double mean{0.0};
    double stddev{0.0};   ///< sample standard deviation (n-1); 0 when n < 2
    double ci_half{0.0};  ///< 95% Student-t half-width; 0 when n < 2
};

/// Summarize raw samples (mean, sample stddev, 95% t-interval half-width).
Summary summarize(const std::vector<double>& samples);

struct ReplicationResult {
    std::size_t replications{0};
    /// Replications with zero completed requests; excluded from the
    /// latency summaries below.
    std::size_t degenerate{0};
    std::vector<std::uint64_t> seeds; ///< seeds[i] drove replication i
    Summary delivered_gbps;
    Summary delivered_mops;
    Summary mean_latency_us;
    Summary p50_latency_us;
    Summary p99_latency_us;
    Summary drop_rate;
    /**
     * Aggregate of every replication's structured snapshot: counters and
     * histogram buckets summed, gauges averaged (obs::aggregate
     * semantics). Empty when the per-replication snapshots were empty.
     */
    obs::MetricsSnapshot metrics;
};

/**
 * The resolved outcome of one guarded task (one point x replication
 * cell of a sweep) in the form a checkpoint journal stores and a resumed
 * run replays. A resumed task is *not* re-simulated:
 * the recorded result (or recorded failure) is used verbatim, which is
 * what makes an interrupted-then-resumed run byte-identical to an
 * uninterrupted one at any thread count — every task is pure in its index,
 * so replaying a completed index is indistinguishable from re-running it.
 */
struct CompletedTask {
    bool ok{false};
    std::uint64_t seed{0};     ///< seed of the last attempt made
    std::size_t attempts{1};   ///< attempts consumed (retries included)
    std::string error;         ///< what() of the last failure when !ok
    sim::SimResult result;     ///< valid only when ok
};

/// Resume source: returns true and fills the outcome when @p task index
/// is already complete in the journal.
using TaskLookup = std::function<bool(std::size_t task, CompletedTask& out)>;

/// Completion sink: fired once per freshly-computed task (success or
/// exhausted-retries failure), from the worker thread that ran it.
using TaskHook = std::function<void(std::size_t task, const CompletedTask&)>;

/// A replication whose simulation threw (see Replicator::run_guarded).
struct FailedReplication {
    std::size_t replication{0};
    std::uint64_t seed{0};
    std::string error;   ///< what() of the thrown exception
};

/// Guarded-run outcome: aggregates over the replications that completed,
/// plus a structured record per replication that threw.
struct GuardedReplication {
    ReplicationResult stats;
    std::vector<FailedReplication> failed;
    bool complete() const { return failed.empty(); }
};

class Replicator {
  public:
    Replicator(std::size_t replications, std::uint64_t root_seed)
        : replications_(replications), root_seed_(root_seed)
    {
    }

    std::size_t replications() const { return replications_; }
    std::uint64_t root_seed() const { return root_seed_; }

    /// The derived per-replication seeds (pairwise distinct, stable).
    std::vector<std::uint64_t> seeds() const;

    using SimFn = std::function<sim::SimResult(std::uint64_t seed)>;

    /**
     * Run fn(seed) once per replication — across @p threads threads when
     * > 1 — and aggregate. Results are identical for any thread count:
     * each replication depends only on its derived seed.
     */
    ReplicationResult run(const SimFn& fn, std::size_t threads = 1) const;

    /**
     * Failure-isolating run: a replication whose fn(seed) throws becomes a
     * FailedReplication record instead of aborting the batch; the
     * survivors aggregate as usual (stats.seeds lists only them). Same
     * thread-count-independence guarantee as run().
     */
    GuardedReplication run_guarded(const SimFn& fn,
                                   std::size_t threads = 1) const;

    /// Aggregate pre-computed results (results[i] came from seeds[i]).
    static ReplicationResult aggregate(
        const std::vector<std::uint64_t>& seeds,
        const std::vector<sim::SimResult>& results);

  private:
    std::size_t replications_;
    std::uint64_t root_seed_;
};

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_REPLICATOR_HPP_
