/**
 * @file
 * Kill-tolerant run supervision: the shared Campaign loop (checkpoint-store
 * wiring, resume with fingerprint verification, periodic publication) and
 * the per-workload supervisors on top of it, with sweep retry rounds.
 * See supervisor.hpp for the loop contract.
 */
#include "lognic/ckpt/supervisor.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "lognic/io/checkpoint.hpp"

namespace lognic::ckpt {

namespace {

void
log_to(const SupervisorOptions& sup, const std::string& message)
{
    if (sup.log)
        sup.log(message);
}

void
do_sleep(const SupervisorOptions& sup, double seconds)
{
    if (seconds <= 0.0)
        return;
    if (sup.sleep_fn) {
        sup.sleep_fn(seconds);
        return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

const SupervisorOptions&
validated(const SupervisorOptions& sup)
{
    if (sup.dir.empty())
        throw std::invalid_argument(
            "supervisor: checkpoint directory must be non-empty");
    if (sup.checkpoint_every == 0)
        throw std::invalid_argument(
            "supervisor: checkpoint_every must be >= 1");
    if (sup.retention == 0)
        throw std::invalid_argument("supervisor: retention must be >= 1");
    return sup;
}

} // namespace

// --- the campaign loop --------------------------------------------------------

Campaign::Campaign(const SupervisorOptions& sup, const std::string& kind,
                   const Restore& restore, const Replay& replay,
                   Snapshot snapshot)
    : store_(validated(sup).dir, kind, StoreOptions{sup.retention}),
      snapshot_(std::move(snapshot)), logged_(static_cast<bool>(replay)),
      every_(sup.checkpoint_every)
{
    if (!sup.resume)
        return;
    const auto loaded = store_.load_latest(&resume_.rejected);
    for (const auto& r : resume_.rejected)
        log_to(sup, "checkpoint: skipping " + r.path + ": " + r.reason);
    if (!loaded)
        return;
    restore(loaded->payload);
    std::string replayed;
    if (logged_) {
        LogReplay log = store_.load_log(*loaded);
        if (log.rejected) {
            log_to(sup, "checkpoint: log " + log.rejected->path + " "
                            + log.rejected->reason);
            resume_.rejected.push_back(std::move(*log.rejected));
        }
        for (const std::string& record : log.records) {
            try {
                replay(record);
            } catch (const std::exception& e) {
                throw std::runtime_error(
                    "checkpoint: cannot replay record "
                    + std::to_string(resume_.replayed + 1) + " of '"
                    + store_.log_path_for(loaded->generation)
                    + "': " + e.what());
            }
            ++resume_.replayed;
        }
        replayed = ", replayed " + std::to_string(resume_.replayed)
            + " log record(s)";
    }
    resume_.resumed = true;
    resume_.generation = loaded->generation;
    log_to(sup, "checkpoint: resumed from generation "
                    + std::to_string(loaded->generation) + " in '"
                    + store_.dir() + "'" + replayed);
}

io::Json
Campaign::stored_journal(const std::string& dir, const io::Json& fingerprint,
                         const std::string& payload)
{
    const io::Json doc = io::Json::parse(payload);
    const std::string want = fingerprint.dump(-1);
    const std::string have = doc.at("fingerprint").dump(-1);
    if (want != have)
        throw std::runtime_error(
            "checkpoint: fingerprint mismatch in '" + dir
            + "': the stored journal belongs to a different campaign "
              "(stored "
            + have + ", running " + want
            + "); point --checkpoint at a fresh directory or rerun the "
              "original spec");
    return doc.at("journal");
}

std::string
Campaign::journal_payload(const io::Json& fingerprint, const io::Json& journal)
{
    io::Json doc;
    doc.set("fingerprint", fingerprint);
    doc.set("journal", journal);
    return doc.dump(-1);
}

void
Campaign::tick(std::string record)
{
    // Frame and checksum the record before taking the lock.
    const std::string framed =
        logged_ ? io::encode_record(record) : std::string();
    std::unique_lock<std::mutex> lock(mutex_);
    pending_records_ += framed;
    pending_bytes_ += record.size();
    if (++pending_ < every_)
        return;
    publish_locked(lock);
}

void
Campaign::flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    compact_next_ = true;
    publish_locked(lock);
}

void
Campaign::compact_next()
{
    std::lock_guard<std::mutex> lock(mutex_);
    compact_next_ = true;
}

std::uint64_t
Campaign::checkpoints() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return checkpoints_;
}

void
Campaign::publish_locked(std::unique_lock<std::mutex>& lock)
{
    // Appends are ordered by taking io_mutex_ under mutex_; the append
    // itself runs after mutex_ is released, so other completions keep
    // recording while it syncs.
    std::unique_lock<std::mutex> io(io_mutex_);
    std::string batch = std::move(pending_records_);
    pending_records_.clear();
    const std::size_t batch_bytes = pending_bytes_;
    pending_ = 0;
    pending_bytes_ = 0;
    ++checkpoints_;
    // The log's record payloads are what a compaction would add to the
    // snapshot; once they would outweigh it, compacting costs no more
    // than the log already did, which keeps the total bytes linear.
    if (!logged_ || snapshot_generation_ == 0 || compact_next_
        || log_bytes_ + batch_bytes > snapshot_bytes_) {
        // Every pending record is already in the journal the snapshot
        // serializes, so the snapshot supersedes them.
        const std::string payload = snapshot_();
        snapshot_generation_ = store_.save(payload);
        snapshot_checksum_ = io::fnv1a64(payload);
        snapshot_bytes_ = payload.size();
        log_.reset();
        log_bytes_ = 0;
        compact_next_ = false;
        return;
    }
    if (!log_)
        log_ = store_.open_log(snapshot_generation_, snapshot_checksum_);
    log_bytes_ += batch_bytes;
    io::AppendFile& log = *log_;
    lock.unlock();
    log.append(batch);
}

// --- sweeps -------------------------------------------------------------------

SupervisedSweep
supervise_sweep(const runner::Sweep& sweep, runner::SweepOptions options,
                const SupervisorOptions& sup)
{
    if (options.resume_lookup || options.on_task_complete)
        throw std::invalid_argument(
            "supervise_sweep: options.resume_lookup/on_task_complete are "
            "owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "sweep");
    fp.set("points", io::u64_to_hex(sweep.size()));
    fp.set("replications", io::u64_to_hex(options.replications));
    fp.set("root_seed", io::u64_to_hex(options.root_seed));
    fp.set("max_retries", io::u64_to_hex(options.max_retries));
    // threads intentionally absent: results are thread-count independent,
    // so resuming on a different machine width is legitimate.

    TaskJournal journal;
    Campaign campaign(sup, "sweep", fp, journal);
    options.resume_lookup = journal.lookup_fn();
    options.on_task_complete = journal.record_fn(campaign.tick_fn());

    runner::SweepReport report = sweep.run_guarded(options);

    std::size_t rounds = 0;
    double backoff = 0.5; // seconds, doubling each round
    while (rounds < sup.retry_rounds && !report.failed.empty()) {
        ++rounds;
        log_to(sup, "supervisor: retry round " + std::to_string(rounds)
                        + ": " + std::to_string(report.failed.size())
                        + " failed point(s), backing off "
                        + std::to_string(backoff) + "s");
        do_sleep(sup, backoff);
        backoff *= 2.0;
        journal.erase_if(
            [](const runner::CompletedTask& t) { return !t.ok; });
        campaign.compact_next();
        report = sweep.run_guarded(options);
    }

    campaign.flush();
    return {std::move(report), campaign.resume(), campaign.checkpoints(),
            rounds};
}

// --- conformance checks -------------------------------------------------------

SupervisedCheck
supervise_check(check::CheckOptions copts,
                const std::vector<check::CorpusEntry>& corpus,
                const SupervisorOptions& sup)
{
    if (copts.resume_lookup || copts.on_trial_complete)
        throw std::invalid_argument(
            "supervise_check: copts.resume_lookup/on_trial_complete are "
            "owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "check");
    fp.set("trials", io::u64_to_hex(copts.trials));
    fp.set("seed", io::u64_to_hex(copts.seed));
    fp.set("duration", io::double_to_hex(copts.duration));
    fp.set("warmup_fraction", io::double_to_hex(copts.warmup_fraction));
    fp.set("monotonicity", copts.monotonicity);
    fp.set("minimize", copts.minimize);
    io::Json names(io::JsonArray{});
    for (const auto& e : corpus)
        names.push_back(e.name);
    fp.set("corpus", std::move(names));
    // threads intentionally absent, as for sweeps.

    CheckJournal journal;
    Campaign campaign(sup, "check", fp, journal);
    copts.resume_lookup = journal.lookup_fn();
    copts.on_trial_complete = journal.record_fn(campaign.tick_fn());

    check::CheckReport report = check::run_campaign(copts, corpus);

    campaign.flush();
    return {std::move(report), campaign.resume(), campaign.checkpoints()};
}

// --- calibrations -------------------------------------------------------------

SupervisedCalibration
supervise_calibration(calib::ParameterSpace space, calib::Dataset data,
                      calib::CalibratorOptions opts,
                      const SupervisorOptions& sup)
{
    if (opts.fit.resume_lookup || opts.fit.on_start_complete)
        throw std::invalid_argument(
            "supervise_calibration: fit.resume_lookup/on_start_complete "
            "are owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "calib");
    fp.set("starts", io::u64_to_hex(opts.fit.starts));
    fp.set("seed", io::u64_to_hex(opts.fit.seed));
    // Always LM now; kept so checkpoints written while the engine was
    // selectable still match (calib::kFitEngine).
    fp.set("backend", calib::kFitEngine);
    fp.set("max_iterations", io::u64_to_hex(opts.fit.max_iterations));
    fp.set("holdout_fraction", io::double_to_hex(opts.holdout_fraction));
    fp.set("k_folds", io::u64_to_hex(opts.k_folds));

    FitJournal journal;
    Campaign campaign(sup, "calib", fp, journal);
    opts.fit.resume_lookup = journal.lookup_fn();
    opts.fit.on_start_complete = journal.record_fn(campaign.tick_fn());

    const calib::Calibrator calibrator(std::move(space), std::move(data),
                                       std::move(opts));
    calib::CalibrationReport report = calibrator.fit();

    campaign.flush();
    return {std::move(report), campaign.resume(), campaign.checkpoints()};
}

// --- single long simulations --------------------------------------------------

SupervisedSimulation
supervise_simulation(sim::NicSimulator& sim,
                     std::uint64_t events_per_segment,
                     const SupervisorOptions& sup)
{
    if (events_per_segment == 0)
        throw std::invalid_argument(
            "supervise_simulation: events_per_segment must be > 0");

    // The payload is the raw state snapshot: load_state() validates the
    // snapshot's config fingerprint against the live simulator and throws
    // on mismatch.
    Campaign campaign(
        sup, "sim",
        [&sim](const std::string& payload) {
            sim.load_state(io::Json::parse(payload));
        },
        [&sim] { return sim.save_state().dump(-1); });
    if (!campaign.resume().resumed)
        sim.begin();

    std::uint64_t segments = 0;
    for (;;) {
        const bool done = sim.advance(events_per_segment);
        ++segments;
        if (done)
            break;
        campaign.tick();
    }
    // Publish the end-of-run snapshot too: a resume after a crash between
    // "run finished" and "results consumed" replays instantly instead of
    // re-simulating the last stretch.
    campaign.flush();
    return {sim.finalize(), campaign.resume(), campaign.checkpoints(),
            segments};
}

} // namespace lognic::ckpt
