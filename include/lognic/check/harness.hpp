/**
 * @file
 * The conformance harness (lognic::check): randomized differential
 * trials, golden-corpus replay, violation reports with minimal
 * reproducing specs.
 *
 * A trial draws a scenario from the seed-deterministic generator, runs it
 * through the DES once, and feeds the result to every oracle: the
 * invariant oracles (oracles.hpp), the model-vs-DES comparators, the
 * closed-form comparators on degenerate topologies, and a latency-vs-load
 * monotonicity ladder (conformance.hpp). Trial seeds derive from the root
 * seed with runner::derive_seed, so `check --trials N --seed S` names the
 * exact same N scenarios on every machine — a reported violation is
 * reproducible by (S, trial index) alone, and additionally ships as a
 * self-contained JSON spec (scenario + options) that can be replayed
 * directly or committed to the golden corpus under tests/check/corpus/.
 */
#ifndef LOGNIC_CHECK_HARNESS_HPP_
#define LOGNIC_CHECK_HARNESS_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lognic/check/conformance.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/check/oracles.hpp"

namespace lognic::check {

/// Outcome of one failing trial or corpus entry.
struct TrialFailure {
    std::string name;
    /// Generator seed (0 for corpus entries, which carry no generator).
    std::uint64_t generator_seed{0};
    bool single_queue{false};
    std::vector<Violation> violations;
    /// Self-contained reproducing spec (a CorpusEntry document), shrunk
    /// when minimization found a smaller still-failing variant.
    io::Json minimal_spec;
};

/**
 * Everything one trial (or corpus entry) contributed to the report, in
 * the form a checkpoint journal stores and a resumed run replays. Keys
 * are stable strings — "trial:<index>" / "corpus:<name>" — so a resumed
 * `lognic check` skips exactly the work already done and the merged
 * report is byte-identical to an uninterrupted run.
 */
struct TrialOutcome {
    bool single_queue{false};
    std::uint64_t sims_run{0};    ///< simulations this unit executed
    std::uint64_t violations{0};
    bool failed{false};
    TrialFailure failure;         ///< valid only when failed
};

/// Resume source: true + filled outcome when @p key is already journaled.
/// Called from worker threads, concurrently for different keys.
using TrialLookup =
    std::function<bool(const std::string& key, TrialOutcome& out)>;

/// Completion sink: fired once per freshly-run trial/corpus entry, from
/// the worker thread that ran it, concurrently for different keys and in
/// no fixed order.
using TrialHook =
    std::function<void(const std::string& key, const TrialOutcome&)>;

struct CheckOptions {
    std::uint64_t trials{50};
    std::uint64_t seed{7};
    /// Simulated duration per run, seconds.
    double duration{0.05};
    double warmup_fraction{0.2};
    /// Run the offered-load ladder (3 extra simulations per trial).
    bool monotonicity{true};
    /// Shrink failing specs before reporting them.
    bool minimize{true};
    GeneratorConfig generator{};
    InvariantTolerances invariants{};
    ConformanceTolerances conformance{};
    /// Worker threads for trials and corpus entries; 0 means one per
    /// hardware thread. The report is byte-identical at any count: units
    /// run into indexed slots and fold in index order.
    std::size_t threads{0};
    /// Checkpoint/resume seams (see lognic::ckpt). Hooks never change
    /// what the harness computes, only whether a unit is re-run.
    TrialLookup resume_lookup{};
    TrialHook on_trial_complete{};
};

/**
 * One golden-corpus entry: a pinned scenario plus the run options it must
 * stay clean under. The JSON layout is exactly what a failing trial's
 * minimal_spec contains, so promoting a regression into the corpus is a
 * file copy.
 */
struct CorpusEntry {
    std::string name;
    io::Scenario scenario;
    sim::SimOptions options{};
    bool monotonicity{true};
};

io::Json to_json(const CorpusEntry& entry);
CorpusEntry corpus_entry_from_json(const io::Json& j);

struct CheckReport {
    std::uint64_t trials{0};
    std::uint64_t corpus_entries{0};
    std::uint64_t single_queue_trials{0};
    std::uint64_t sims_run{0};
    std::uint64_t violations{0};
    std::vector<TrialFailure> failures;
};

io::Json to_json(const CheckReport& report);

/// Merge two reports (e.g. corpus replay + random trials).
CheckReport merge(CheckReport a, const CheckReport& b);

/**
 * All oracles against one explicit (scenario, options) pair. The
 * monotonicity ladder runs only when both @p run_monotonicity and
 * opts-independent preconditions hold. @p sims_run (if non-null)
 * accumulates the number of simulations executed.
 */
std::vector<Violation>
check_scenario(const io::Scenario& sc, const sim::SimOptions& opts,
               const CheckOptions& copts, bool run_monotonicity = true,
               std::uint64_t* sims_run = nullptr);

/**
 * N randomized trials under the root seed, fanned over copts.threads
 * workers. When trials throw, the lowest index's error is rethrown.
 */
CheckReport run_trials(const CheckOptions& copts);

/// Replay pinned entries (the golden corpus), fanned out and folded like
/// run_trials.
CheckReport replay_corpus(const std::vector<CorpusEntry>& entries,
                          const CheckOptions& copts);

} // namespace lognic::check

#endif // LOGNIC_CHECK_HARNESS_HPP_
