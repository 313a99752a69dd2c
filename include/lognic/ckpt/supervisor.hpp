/**
 * @file
 * Kill-tolerant run supervision (lognic::ckpt): wrap a sweep, a `lognic
 * check` run, a calibration, or a single long simulation in a
 * checkpoint/resume loop.
 *
 * Every supervisor — these four and dse::supervise_exploration — is a thin
 * caller of one Campaign, which owns a CheckpointStore (one generation
 * directory, one frame kind per workload). The caller owns a
 * completed-work journal and the hook wiring into the workload's resume
 * seams. The loop is:
 *
 *  1. resume: load the newest *valid* generation (torn/corrupt/skewed
 *     files are recorded in ResumeInfo::rejected and skipped — never
 *     silently loaded), verify its config fingerprint against the live
 *     run, and preload the journal;
 *  2. run with journal hooks: completed units are recorded as they
 *     finish, and every `checkpoint_every` completions a new generation
 *     is published via the atomic-rename protocol;
 *  3. (sweeps, in supervise_sweep) retry: failed points are erased from
 *     the journal and re-run, up to `retry_rounds` extra passes with
 *     exponential backoff between them — transient failures (wall-clock
 *     truncation on a loaded host, resource exhaustion) heal,
 *     deterministic ones fail identically and are reported as data;
 *  4. final checkpoint: the finished journal is always published, so a
 *     later invocation resumes straight to the report.
 *
 * Resuming a finished or partial run is byte-identical to running it
 * uninterrupted, at any thread count: journaled outcomes replay verbatim,
 * and every unit's seed is a pure function of its index.
 *
 * A fingerprint mismatch (the checkpoint directory holds a journal for a
 * *different* campaign — other spec, other seed, other trial count)
 * throws rather than mixing incompatible work.
 */
#ifndef LOGNIC_CKPT_SUPERVISOR_HPP_
#define LOGNIC_CKPT_SUPERVISOR_HPP_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "lognic/calib/calibrator.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::ckpt {

struct SupervisorOptions {
    /// Checkpoint directory (created when missing). Must be non-empty.
    std::string dir;
    /// Load the newest valid generation before running; false starts
    /// fresh (existing generations are kept and eventually pruned).
    bool resume{true};
    /// Completed units between periodic checkpoint publications (>= 1).
    /// For supervise_simulation this counts advance() segments instead.
    std::uint64_t checkpoint_every{8};
    /// Generations kept on disk.
    std::size_t retention{3};
    /// Extra passes over failed sweep points (0 = report failures as-is).
    std::size_t retry_rounds{0};
    /// Backoff before retry round r: initial * multiplier^(r-1) seconds.
    double backoff_initial_seconds{0.5};
    double backoff_multiplier{2.0};
    /// Test seam: called instead of a real sleep when set.
    std::function<void(double seconds)> sleep_fn{};
    /// Diagnostics sink (resume decisions, rejected generations, retry
    /// rounds). Unset = silent.
    std::function<void(const std::string&)> log{};
};

/// What resume found in the checkpoint directory.
struct ResumeInfo {
    bool resumed{false};          ///< a valid generation was loaded
    std::uint64_t generation{0};  ///< its number (when resumed)
    std::size_t completed{0};     ///< journal entries replayed
    /// Generations that could not be used (torn write, checksum mismatch,
    /// version skew) and why. Never silently loaded.
    std::vector<Rejected> rejected;
};

/**
 * The checkpoint loop every supervisor shares. Construction validates the
 * SupervisorOptions, opens the generation store, and resumes: the newest
 * valid generation is handed to the restore step, and every rejected one
 * is logged and kept in resume().rejected. tick() counts a completion,
 * from any thread, and publishes a generation every `checkpoint_every` of
 * them; flush() publishes the final one.
 *
 * A journal campaign publishes {"fingerprint": ..., "journal": ...} and
 * throws rather than resume a generation whose fingerprint differs from
 * the live campaign's. A snapshot campaign publishes and restores opaque
 * payloads (a simulator snapshot carries and checks its own fingerprint).
 *
 * One mutex serializes the count and the store; journal serialization
 * happens inside it too, which briefly pauses workers — acceptable at
 * checkpoint granularity. Lock order is campaign mutex -> journal mutex,
 * never the reverse.
 */
class Campaign {
public:
    using Restore = std::function<void(const std::string& payload)>;
    using Snapshot = std::function<std::string()>;

    /// Snapshot campaign: @p restore receives the newest valid payload,
    /// @p snapshot produces each published one.
    Campaign(const SupervisorOptions& sup, const std::string& kind,
             const Restore& restore, Snapshot snapshot);

    /// Journal campaign over @p journal (load_json/to_json/size), which
    /// must outlive the campaign.
    template <class J>
    Campaign(const SupervisorOptions& sup, const std::string& kind,
             const io::Json& fingerprint, J& journal)
        : Campaign(
            sup, kind,
            [&](const std::string& payload) {
                journal.load_json(stored_journal(sup.dir, fingerprint,
                                                 payload));
            },
            [fingerprint, &journal] {
                return journal_payload(fingerprint, journal.to_json());
            })
    {
        resume_.completed = journal.size();
    }

    const ResumeInfo& resume() const { return resume_; }

    /// Count one completion; publish when `checkpoint_every` are pending.
    /// The journal record_fn() callback.
    void tick();
    /// Unconditional publication (the final checkpoint).
    void flush();
    /// Generations published by this campaign.
    std::uint64_t checkpoints() const;

private:
    /// The journal document of a stored {"fingerprint", "journal"}
    /// payload. @throws std::runtime_error when the stored fingerprint is
    /// not @p fingerprint: the directory holds a journal for a different
    /// campaign, and resuming it would mix incompatible work.
    static io::Json stored_journal(const std::string& dir,
                                   const io::Json& fingerprint,
                                   const std::string& payload);
    static std::string journal_payload(const io::Json& fingerprint,
                                       const io::Json& journal);
    void publish_locked();

    CheckpointStore store_;
    Snapshot snapshot_;
    std::uint64_t every_;
    ResumeInfo resume_;
    mutable std::mutex mutex_;
    std::uint64_t pending_{0};
    std::uint64_t checkpoints_{0};
};

struct SupervisedSweep {
    runner::SweepReport report;
    ResumeInfo resume;
    std::uint64_t checkpoints{0};     ///< generations published this run
    std::size_t retry_rounds_used{0};
};

/**
 * Run (or resume) a guarded sweep under checkpoint supervision.
 * @p options.resume_lookup / on_task_complete must be unset (the
 * supervisor owns those seams); throws std::invalid_argument otherwise.
 */
SupervisedSweep supervise_sweep(const runner::Sweep& sweep,
                                runner::SweepOptions options,
                                const SupervisorOptions& sup);

struct SupervisedCheck {
    check::CheckReport report;
    ResumeInfo resume;
    std::uint64_t checkpoints{0};
};

/**
 * Run (or resume) a conformance-check campaign (corpus replay + random
 * trials, merged corpus-first exactly like `lognic check`).
 * @p copts.resume_lookup / on_trial_complete must be unset.
 */
SupervisedCheck supervise_check(check::CheckOptions copts,
                                const std::vector<check::CorpusEntry>& corpus,
                                const SupervisorOptions& sup);

struct SupervisedCalibration {
    calib::CalibrationReport report;
    ResumeInfo resume;
    std::uint64_t checkpoints{0};
};

/**
 * Run (or resume) a calibration: completed top-level starts replay from
 * the journal (fold fits re-run — they are cheap relative to starts and
 * never journal). @p opts.fit.resume_lookup / on_start_complete must be
 * unset.
 */
SupervisedCalibration supervise_calibration(calib::ParameterSpace space,
                                            calib::Dataset data,
                                            calib::CalibratorOptions opts,
                                            const SupervisorOptions& sup);

struct SupervisedSimulation {
    sim::SimResult result;
    ResumeInfo resume;
    std::uint64_t checkpoints{0};
    std::uint64_t segments{0};    ///< advance() calls this invocation
};

/**
 * Run (or resume) one long DES run in event-budget segments with a full
 * state snapshot published every `checkpoint_every` segments. @p sim must
 * be freshly constructed (no begin()/run() yet); resume feeds the newest
 * valid snapshot to load_state(), which validates the config fingerprint.
 * @p events_per_segment must be > 0.
 */
SupervisedSimulation supervise_simulation(sim::NicSimulator& sim,
                                          std::uint64_t events_per_segment,
                                          const SupervisorOptions& sup);

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_SUPERVISOR_HPP_
