/**
 * @file
 * Kill-tolerant run supervision (lognic::ckpt): wrap a sweep, a `lognic
 * check` run, a calibration, or a single long simulation in a
 * checkpoint/resume loop.
 *
 * Every supervisor — these four and dse::supervise_exploration — is a thin
 * caller of one Campaign, which owns a CheckpointStore (one generation
 * directory, one kind per workload). The caller owns a
 * completed-work journal and the hook wiring into the workload's resume
 * seams. The loop is:
 *
 *  1. resume: load the newest *valid* generation (torn/corrupt/skewed
 *     files are recorded in ResumeInfo::rejected and skipped — never
 *     silently loaded), verify its config fingerprint against the live
 *     run, preload the journal from the generation's snapshot (its
 *     record 0), and replay the valid prefix of the records after it (a
 *     torn or rotten record is named in ResumeInfo::rejected by path and
 *     byte offset);
 *  2. run with journal hooks: completed units are recorded as they
 *     finish, and every `checkpoint_every` completions they are published
 *     — appended to the newest generation's file, or compacted into a
 *     new snapshot generation once those records outgrow its snapshot;
 *  3. (sweeps, in supervise_sweep) retry: failed points are erased from
 *     the journal and re-run, up to `retry_rounds` extra passes with
 *     exponential backoff between them — transient failures (wall-clock
 *     truncation on a loaded host, resource exhaustion) heal,
 *     deterministic ones fail identically and are reported as data;
 *  4. final checkpoint: the finished journal is always published as a
 *     snapshot, so a later invocation resumes straight to the report.
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
#include <memory>
#include <mutex>
#include <stdexcept>
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
    /// Extra passes over failed sweep points (0 = report failures as-is);
    /// supervise_sweep backs off 0.5 * 2^(r-1) seconds before round r.
    std::size_t retry_rounds{0};
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
    std::size_t completed{0};     ///< journal entries restored
    std::size_t replayed{0};      ///< of which log records, applied in order
    /// Generations that could not be used (torn write, checksum mismatch,
    /// version skew) and why, then the loaded generation's first bad
    /// record after its snapshot, if any. Never silently loaded.
    std::vector<Rejected> rejected;
};

/**
 * The checkpoint loop every supervisor shares. Construction validates the
 * SupervisorOptions, opens the generation store, and resumes: the newest
 * valid generation is handed to the restore step, and every rejected one
 * is logged and kept in resume().rejected. tick() counts a completion,
 * from any thread, and publishes every `checkpoint_every` of them;
 * flush() publishes the final one.
 *
 * A journal campaign publishes {"fingerprint": ..., "journal": ...}
 * snapshots and throws rather than resume a generation whose fingerprint
 * differs from the live campaign's. Between snapshots it publishes by
 * appending: each tick() carries the record of the entry just journaled,
 * and a publication appends the records since the last one to the
 * newest generation's file, after its snapshot, and fdatasyncs it —
 * O(records since the last publication), not O(journal). A publication
 * compacts instead (a new generation whose only record is a full
 * snapshot) when this campaign has no snapshot of its own yet, after
 * compact_next(), and when the appended records would outgrow their
 * snapshot; flush() always compacts. Snapshot sizes thus
 * about double from one compaction to the next, so a campaign of N
 * records writes O(log N) generations and O(N) bytes in total.
 *
 * A snapshot campaign publishes and restores opaque payloads, every
 * publication a full generation (a simulator snapshot carries and checks
 * its own fingerprint, and is not a journal to append to).
 *
 * One mutex serializes the count, the pending records, and the store;
 * records are encoded and checksummed on the completing thread before it
 * is taken, and journal serialization happens inside it only at
 * compactions. A second mutex orders the appends: a publication takes it
 * under the first, then releases the first while its append syncs, so
 * other completions keep recording meanwhile. Lock order is campaign
 * mutex -> append mutex -> journal mutex, never the reverse.
 */
class Campaign {
public:
    using Restore = std::function<void(const std::string& payload)>;
    using Snapshot = std::function<std::string()>;
    using Replay = std::function<void(const std::string& record)>;

    /// Snapshot campaign: @p restore receives the newest valid payload,
    /// @p snapshot produces each published one.
    Campaign(const SupervisorOptions& sup, const std::string& kind,
             const Restore& restore, Snapshot snapshot)
        : Campaign(sup, kind, restore, Replay{}, std::move(snapshot))
    {
    }

    /// Journal campaign over @p journal (load_json/to_json/size, and
    /// replay() of its records), which must outlive the campaign.
    template <class J>
    Campaign(const SupervisorOptions& sup, const std::string& kind,
             const io::Json& fingerprint, J& journal)
        : Campaign(
            sup, kind,
            [&](const std::string& payload) {
                journal.load_json(stored_journal(sup.dir, fingerprint,
                                                 payload));
            },
            [&journal](const std::string& record) {
                if (!journal.replay(record))
                    throw std::runtime_error(
                        "the record belongs to no array of this journal");
            },
            [fingerprint, &journal] {
                return journal_payload(fingerprint, journal.to_json());
            })
    {
        resume_.completed = journal.size();
    }

    const ResumeInfo& resume() const { return resume_; }

    /// Count one completion; publish when `checkpoint_every` are pending.
    /// A journal campaign's @p record is the entry's log record, as the
    /// journal's record_fn() hands it over.
    void tick(std::string record = {});
    /// tick() as a journal record_fn() callback. The campaign must outlive
    /// the returned function.
    std::function<void(std::string record)> tick_fn()
    {
        return [this](std::string record) { tick(std::move(record)); };
    }
    /// Unconditional publication of a full snapshot (the final checkpoint).
    void flush();
    /// Make the next publication a full snapshot. Call after erasing
    /// journal entries: no log record of an erased entry may outlive the
    /// erase.
    void compact_next();
    /// Publications by this campaign: log appends and snapshots.
    std::uint64_t checkpoints() const;

private:
    Campaign(const SupervisorOptions& sup, const std::string& kind,
             const Restore& restore, const Replay& replay,
             Snapshot snapshot);

    /// The journal document of a stored {"fingerprint", "journal"}
    /// payload. @throws std::runtime_error when the stored fingerprint is
    /// not @p fingerprint: the directory holds a journal for a different
    /// campaign, and resuming it would mix incompatible work.
    static io::Json stored_journal(const std::string& dir,
                                   const io::Json& fingerprint,
                                   const std::string& payload);
    static std::string journal_payload(const io::Json& fingerprint,
                                       const io::Json& journal);
    /// Publish what is pending; @p lock holds mutex_ and may be released
    /// before an append returns.
    void publish_locked(std::unique_lock<std::mutex>& lock);

    CheckpointStore store_;
    Snapshot snapshot_;
    bool logged_; ///< a journal campaign: appends records after snapshots
    std::uint64_t every_;
    ResumeInfo resume_;

    /// Guards the members below; the store and log_ are changed only with
    /// io_mutex_ held too.
    mutable std::mutex mutex_;
    std::uint64_t pending_{0};     ///< completions since the last publication
    std::string pending_records_;  ///< their framed records
    std::size_t pending_bytes_{0}; ///< their record payload bytes
    /// This campaign's newest snapshot (generation 0: none yet), and its
    /// file opened for appending once the first append needs it. Only
    /// generations this campaign published are appended to.
    std::uint64_t snapshot_generation_{0};
    std::size_t snapshot_bytes_{0};
    std::size_t log_bytes_{0}; ///< record payload bytes appended to log_
    bool compact_next_{false};
    std::uint64_t checkpoints_{0};

    /// Held, after mutex_, for each append and compaction: appends land in
    /// publication order, and a compaction waits out the append in flight.
    /// An append writes *log_ with only this mutex held.
    std::mutex io_mutex_;
    std::unique_ptr<io::AppendFile> log_;
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
