/**
 * @file
 * Kill/resume supervision: journals round-trip bit-exactly, and a sweep,
 * check, calibration, or single simulation killed after any completion
 * and resumed from its checkpoint directory produces a report
 * *byte-identical* to the uninterrupted run — at 1 and 8 threads, with
 * corrupt newest generations skipped by name, foreign campaigns refused,
 * and failed points retried with exponential backoff.
 *
 * The kill is simulated at the storage layer: the supervisor checkpoints
 * after every completion (checkpoint_every=1, retention high enough to
 * keep them all), then we clone the directory cut to the state a SIGKILL
 * right after the g-th publication leaves behind — newer generations
 * deleted, the record log truncated to its g-th publication boundary
 * (kill_points.hpp) — and resume from the clone.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/calib/dataset.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "../test_helpers.hpp"
#include "kill_points.hpp"

namespace lognic::ckpt {
namespace {

using test::clone_killed_at;
using test::KillPoint;
using test::publications;
using test::TempDir;

// --- journal round trips ------------------------------------------------------

sim::SimResult
tiny_sim_result(std::uint64_t seed)
{
    const auto hw = test::small_nic();
    const auto graph = test::single_stage_graph(hw);
    const auto traffic = test::mtu_traffic(8.0);
    sim::SimOptions opts;
    opts.duration = sim::SimTime{0.002};
    opts.seed = seed;
    return sim::NicSimulator(hw, graph, traffic, opts).run();
}

TEST(JournalRoundTrip, TaskJournalIsBitExactThroughDumpAndParse)
{
    TaskJournal journal;
    runner::CompletedTask ok;
    ok.ok = true;
    ok.seed = 0xdeadbeefcafef00dull;
    ok.attempts = 2;
    ok.result = tiny_sim_result(7);
    journal.record(3, ok);

    runner::CompletedTask bad;
    bad.ok = false;
    bad.seed = 17;
    bad.attempts = 3;
    bad.error = "simulated failure: \"quoted\" and\nnewline";
    journal.record(9, bad);

    const io::Json j = journal.to_json();
    TaskJournal back;
    back.load_json(io::Json::parse(j.dump(-1)));
    EXPECT_EQ(back.size(), 2u);
    // Re-serialization equality is the strongest bit-exactness check:
    // every hex-encoded double and u64 must survive untouched.
    EXPECT_EQ(back.to_json().dump(-1), j.dump(-1));

    runner::CompletedTask out;
    ASSERT_TRUE(back.lookup(3, out));
    EXPECT_EQ(out.seed, ok.seed);
    EXPECT_EQ(out.result.completed_total, ok.result.completed_total);
    EXPECT_EQ(out.result.mean_latency.seconds(),
              ok.result.mean_latency.seconds()); // bit-identical
    ASSERT_TRUE(back.lookup(9, out));
    EXPECT_EQ(out.error, bad.error);
    EXPECT_FALSE(back.lookup(0, out));

    // What a sweep retry round does: drop the failures so they re-run.
    EXPECT_EQ(back.erase_if(
                  [](const runner::CompletedTask& t) { return !t.ok; }),
              1u);
    EXPECT_EQ(back.size(), 1u);
    EXPECT_FALSE(back.lookup(9, out));
}

TEST(JournalRoundTrip, CheckJournalKeysUnitsByStableStrings)
{
    CheckJournal journal;
    check::TrialOutcome t;
    t.single_queue = true;
    t.sims_run = 4;
    journal.record("trial:0", t);
    check::TrialOutcome c;
    c.sims_run = 1;
    journal.record("corpus:fig18-regression", c);

    const io::Json j = journal.to_json();
    CheckJournal back;
    back.load_json(io::Json::parse(j.dump(-1)));
    EXPECT_EQ(back.size(), 2u);
    EXPECT_EQ(back.to_json().dump(-1), j.dump(-1));
    check::TrialOutcome out;
    ASSERT_TRUE(back.lookup("trial:0", out));
    EXPECT_TRUE(out.single_queue);
    EXPECT_EQ(out.sims_run, 4u);
    EXPECT_FALSE(back.lookup("trial:1", out));
}

TEST(JournalRoundTrip, FitJournalCarriesNonFiniteLosses)
{
    FitJournal journal;
    calib::StartRecord rec;
    rec.outcome.index = 2;
    rec.outcome.seed = 0xffffffffffffffffull;
    rec.outcome.initial_loss = 1e-300;
    rec.outcome.final_loss = std::numeric_limits<double>::infinity();
    rec.outcome.failed = true;
    rec.outcome.message = "solver diverged";
    rec.x = {2.0, -0.0};
    rec.residuals = {std::numeric_limits<double>::quiet_NaN()};
    rec.convergence = {1.0, 0.5, 0.25};
    journal.record(2, rec);

    const io::Json j = journal.to_json();
    FitJournal back;
    back.load_json(io::Json::parse(j.dump(-1)));
    EXPECT_EQ(back.to_json().dump(-1), j.dump(-1));
    calib::StartRecord out;
    ASSERT_TRUE(back.lookup(2, out));
    EXPECT_TRUE(std::isinf(out.outcome.final_loss));
    EXPECT_TRUE(std::isnan(out.residuals.at(0)));
    EXPECT_TRUE(std::signbit(out.x.at(1)));
    EXPECT_EQ(out.convergence, rec.convergence);
}

TEST(JournalRoundTrip, MalformedDocumentsAreRejected)
{
    TaskJournal journal;
    EXPECT_THROW(journal.load_json(io::Json::parse("[]")),
                 std::runtime_error);
    EXPECT_THROW(journal.load_json(io::Json::parse("{\"tasks\": 3}")),
                 std::runtime_error);
    // Duplicate keys would silently drop work — refused.
    EXPECT_THROW(
        journal.load_json(io::Json::parse(
            R"({"tasks": [{"task": "0x1", "ok": false, "seed": "0x0",
                "attempts": "0x1", "error": ""},
               {"task": "0x1", "ok": false, "seed": "0x0",
                "attempts": "0x1", "error": ""}]})")),
        std::runtime_error);
}

// --- supervised sweeps: kill anywhere, resume, byte-identical -----------------

runner::Sweep
small_sweep()
{
    const auto hw = test::small_nic();
    runner::Sweep sweep;
    for (int i = 0; i < 2; ++i) {
        runner::SweepPoint pt{"p" + std::to_string(i), hw,
                              test::single_stage_graph(hw),
                              test::mtu_traffic(6.0 + 4.0 * i),
                              {}};
        pt.options.duration = sim::SimTime{0.002};
        sweep.add(pt);
    }
    return sweep;
}

TEST(SuperviseSweep, ResumeIsByteIdenticalAfterAnyKillPoint)
{
    const runner::Sweep sweep = small_sweep();
    runner::SweepOptions base;
    base.replications = 2; // 4 tasks total

    const std::string baseline =
        runner::to_json(sweep.run_guarded(base)).dump(2);

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        runner::SweepOptions so = base;
        so.threads = threads;

        // One supervised pass that checkpoints after every completion.
        TempDir full("sweep_full_t" + std::to_string(threads));
        SupervisorOptions sup;
        sup.dir = full.path();
        sup.checkpoint_every = 1;
        sup.retention = 100;
        const SupervisedSweep uninterrupted =
            supervise_sweep(sweep, so, sup);
        EXPECT_EQ(runner::to_json(uninterrupted.report).dump(2), baseline)
            << "threads=" << threads;
        EXPECT_FALSE(uninterrupted.resume.resumed);
        EXPECT_EQ(uninterrupted.checkpoints, 5u); // 4 ticks + final flush
        ASSERT_EQ(publications(full.path(), "sweep").size(),
                  uninterrupted.checkpoints);

        // Kill after each checkpoint publication in turn and resume.
        for (std::uint64_t p = 1; p <= uninterrupted.checkpoints; ++p) {
            TempDir killed("sweep_kill_t" + std::to_string(threads) + "_p"
                           + std::to_string(p));
            const KillPoint at =
                clone_killed_at(full.path(), killed.path(), "sweep", p);
            SupervisorOptions rsup;
            rsup.dir = killed.path();
            const SupervisedSweep resumed =
                supervise_sweep(sweep, so, rsup);
            EXPECT_TRUE(resumed.resume.resumed);
            EXPECT_EQ(resumed.resume.generation, at.generation);
            EXPECT_EQ(resumed.resume.replayed, at.records);
            // A snapshot serializes the journal, which may already hold
            // entries other threads recorded but have not yet published.
            if (threads == 1)
                EXPECT_EQ(resumed.resume.completed, std::min<std::size_t>(p, 4));
            else
                EXPECT_GE(resumed.resume.completed, std::min<std::size_t>(p, 4));
            EXPECT_TRUE(resumed.resume.rejected.empty());
            EXPECT_EQ(runner::to_json(resumed.report).dump(2), baseline)
                << "threads=" << threads << " killed after publication "
                << p;
        }

        // Resuming the *finished* directory replays everything.
        SupervisorOptions again;
        again.dir = full.path();
        const SupervisedSweep replay = supervise_sweep(sweep, so, again);
        EXPECT_TRUE(replay.resume.resumed);
        EXPECT_EQ(replay.resume.completed, 4u);
        EXPECT_EQ(runner::to_json(replay.report).dump(2), baseline);
    }
}

TEST(SuperviseSweep, CorruptNewestGenerationIsSkippedByName)
{
    const runner::Sweep sweep = small_sweep();
    runner::SweepOptions so;
    so.replications = 1;

    TempDir dir("sweep_corrupt");
    SupervisorOptions sup;
    sup.dir = dir.path();
    sup.checkpoint_every = 1;
    sup.retention = 100;
    const std::string baseline =
        runner::to_json(supervise_sweep(sweep, so, sup).report).dump(2);

    // Tear the newest generation mid-payload.
    CheckpointStore probe(dir.path(), "sweep", StoreOptions{1000});
    const auto gens = probe.generations();
    ASSERT_FALSE(gens.empty());
    const std::string newest = probe.path_for(gens.back());
    std::ifstream in(newest, std::ios::binary);
    std::string data(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
    in.close();
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << data.substr(0, data.size() * 2 / 3);
    out.close();

    std::vector<std::string> logged;
    SupervisorOptions rsup;
    rsup.dir = dir.path();
    rsup.log = [&logged](const std::string& m) { logged.push_back(m); };
    const SupervisedSweep resumed = supervise_sweep(sweep, so, rsup);
    EXPECT_TRUE(resumed.resume.resumed);
    ASSERT_EQ(resumed.resume.rejected.size(), 1u);
    EXPECT_EQ(resumed.resume.rejected[0].path, newest);
    EXPECT_NE(resumed.resume.rejected[0].reason.find("truncated"),
              std::string::npos);
    EXPECT_EQ(runner::to_json(resumed.report).dump(2), baseline);
    // The skip is reported to the diagnostics sink, path and reason both.
    bool saw_skip = false;
    for (const auto& m : logged)
        saw_skip = saw_skip || (m.find("skipping") != std::string::npos
                                && m.find(newest) != std::string::npos);
    EXPECT_TRUE(saw_skip);
}

TEST(SuperviseSweep, RefusesAForeignCampaignsJournal)
{
    const runner::Sweep sweep = small_sweep();
    runner::SweepOptions so;
    so.replications = 1;

    TempDir dir("sweep_foreign");
    SupervisorOptions sup;
    sup.dir = dir.path();
    supervise_sweep(sweep, so, sup);

    runner::SweepOptions other = so;
    other.root_seed = 43; // different campaign, same directory
    EXPECT_THROW(supervise_sweep(sweep, other, sup), std::runtime_error);
}

TEST(SuperviseSweep, RetriesFailedPointsWithExponentialBackoff)
{
    // One deterministically-throwing point (impossible parallelism): every
    // retry round re-fails it identically, consuming the full budget.
    const auto hw = test::small_nic();
    runner::Sweep sweep;
    runner::SweepPoint good{"good", hw, test::single_stage_graph(hw),
                            test::mtu_traffic(6.0), {}};
    good.options.duration = sim::SimTime{0.002};
    sweep.add(good);
    runner::SweepPoint bad = good;
    bad.label = "bad";
    bad.graph.vertex(*bad.graph.find_vertex("cores"))
        .params.parallelism = 99; // > max_engines: construction throws
    sweep.add(bad);

    runner::SweepOptions so;
    so.replications = 1;

    TempDir dir("sweep_retry");
    std::vector<double> sleeps;
    SupervisorOptions sup;
    sup.dir = dir.path();
    sup.retry_rounds = 2;
    sup.sleep_fn = [&sleeps](double s) { sleeps.push_back(s); };

    const SupervisedSweep out = supervise_sweep(sweep, so, sup);
    EXPECT_EQ(out.retry_rounds_used, 2u);
    EXPECT_EQ(sleeps, (std::vector<double>{0.5, 1.0}));
    ASSERT_EQ(out.report.failed.size(), 1u);
    EXPECT_EQ(out.report.failed[0].label, "bad");
    ASSERT_EQ(out.report.results.size(), 1u);
    EXPECT_EQ(out.report.results[0].label, "good");

    // The deterministic failure is also identical to the unsupervised run.
    const runner::SweepReport plain = sweep.run_guarded(so);
    EXPECT_EQ(runner::to_json(out.report).dump(2),
              runner::to_json(plain).dump(2));
}

TEST(SuperviseSweep, ErasedFailuresNeverComeBackFromTheLog)
{
    // A point that simulates and one that fails to construct, two
    // replications each: tasks 0-1 succeed, tasks 2-3 fail. The retry
    // round erases both failures and re-runs them one at a time, so a
    // kill after its first publication leaves task 3 erased and not yet
    // re-run. Its old failure record sits in the log before the erase;
    // replaying it would resume a different journal than the one
    // published.
    const auto hw = test::small_nic();
    runner::Sweep sweep;
    runner::SweepPoint good{"good", hw, test::single_stage_graph(hw),
                            test::mtu_traffic(6.0), {}};
    good.options.duration = sim::SimTime{0.002};
    sweep.add(good);
    runner::SweepPoint bad = good;
    bad.label = "bad";
    bad.graph.vertex(*bad.graph.find_vertex("cores")).params.parallelism = 99;
    sweep.add(bad);
    runner::SweepOptions so;
    so.replications = 2;
    so.threads = 1;

    TempDir full("sweep_erase_full");
    SupervisorOptions sup;
    sup.dir = full.path();
    sup.checkpoint_every = 1;
    sup.retention = 100;
    sup.retry_rounds = 1;
    sup.sleep_fn = [](double) {};
    const SupervisedSweep uninterrupted = supervise_sweep(sweep, so, sup);
    const std::string want = runner::to_json(uninterrupted.report).dump(2);
    EXPECT_EQ(uninterrupted.retry_rounds_used, 1u);
    // Four first-pass tasks, two retried, the final flush.
    ASSERT_EQ(uninterrupted.checkpoints, 7u);
    const auto pubs = publications(full.path(), "sweep");
    ASSERT_EQ(pubs.size(), uninterrupted.checkpoints);
    // The retry round's first publication is a snapshot.
    EXPECT_EQ(pubs[4].records, 0u);

    for (std::uint64_t p = 1; p <= uninterrupted.checkpoints; ++p) {
        TempDir killed("sweep_erase_p" + std::to_string(p));
        clone_killed_at(full.path(), killed.path(), "sweep", p);
        SupervisorOptions rsup = sup;
        rsup.dir = killed.path();
        const SupervisedSweep resumed = supervise_sweep(sweep, so, rsup);
        EXPECT_TRUE(resumed.resume.resumed);
        if (p == 5) { // tasks 0, 1, and the re-run task 2; task 3 erased
            EXPECT_EQ(resumed.resume.completed, 3u);
        }
        EXPECT_EQ(resumed.retry_rounds_used, uninterrupted.retry_rounds_used)
            << "killed after publication " << p;
        EXPECT_EQ(runner::to_json(resumed.report).dump(2), want)
            << "killed after publication " << p;
    }
}

TEST(SuperviseSweep, RejectsPresetHooksAndBadOptions)
{
    const runner::Sweep sweep = small_sweep();
    TempDir dir("sweep_invalid");
    SupervisorOptions sup;
    sup.dir = dir.path();

    runner::SweepOptions hooked;
    hooked.resume_lookup = [](std::size_t, runner::CompletedTask&) {
        return false;
    };
    EXPECT_THROW(supervise_sweep(sweep, hooked, sup),
                 std::invalid_argument);

    SupervisorOptions nodir;
    EXPECT_THROW(supervise_sweep(sweep, {}, nodir), std::invalid_argument);
    SupervisorOptions zero = sup;
    zero.checkpoint_every = 0;
    EXPECT_THROW(supervise_sweep(sweep, {}, zero), std::invalid_argument);
}

// --- supervised checks --------------------------------------------------------

check::CheckOptions
small_check()
{
    check::CheckOptions copts;
    copts.trials = 4;
    copts.seed = 11;
    copts.duration = 0.002;
    copts.monotonicity = false; // 1 sim per trial keeps this fast
    copts.minimize = false;
    return copts;
}

TEST(SuperviseCheck, ResumeIsByteIdenticalAfterAnyKillPoint)
{
    // 4 trials on one worker, and 12 on four.
    for (const auto& [threads, trials] :
         {std::pair<std::size_t, std::uint64_t>{1, 4}, {4, 12}}) {
        check::CheckOptions copts = small_check();
        copts.trials = trials;
        copts.threads = 1;
        const std::string baseline =
            check::to_json(check::run_trials(copts)).dump(2);
        copts.threads = threads;

        TempDir full("check_full_t" + std::to_string(threads));
        SupervisorOptions sup;
        sup.dir = full.path();
        sup.checkpoint_every = 1;
        sup.retention = 100;
        const SupervisedCheck uninterrupted =
            supervise_check(copts, {}, sup);
        EXPECT_EQ(check::to_json(uninterrupted.report).dump(2), baseline)
            << "threads=" << threads;
        EXPECT_EQ(uninterrupted.checkpoints, trials + 1); // + final flush
        ASSERT_EQ(publications(full.path(), "check").size(),
                  uninterrupted.checkpoints);

        for (std::uint64_t p = 1; p <= uninterrupted.checkpoints; ++p) {
            TempDir killed("check_kill_t" + std::to_string(threads) + "_p"
                           + std::to_string(p));
            const KillPoint at =
                clone_killed_at(full.path(), killed.path(), "check", p);
            SupervisorOptions rsup;
            rsup.dir = killed.path();
            const SupervisedCheck resumed =
                supervise_check(copts, {}, rsup);
            EXPECT_TRUE(resumed.resume.resumed);
            EXPECT_EQ(resumed.resume.generation, at.generation);
            EXPECT_EQ(resumed.resume.replayed, at.records);
            // A snapshot serializes the journal, which may already hold
            // entries other workers recorded but have not yet published.
            if (threads == 1)
                EXPECT_EQ(resumed.resume.completed, std::min(p, trials));
            else
                EXPECT_GE(resumed.resume.completed, std::min(p, trials));
            EXPECT_EQ(check::to_json(resumed.report).dump(2), baseline)
                << "threads=" << threads << " killed after publication "
                << p;
        }
    }
}

TEST(SuperviseCheck, FingerprintCoversTrialCountAndSeed)
{
    const check::CheckOptions copts = small_check();
    TempDir dir("check_foreign");
    SupervisorOptions sup;
    sup.dir = dir.path();
    supervise_check(copts, {}, sup);

    check::CheckOptions other = small_check();
    other.seed = 12;
    EXPECT_THROW(supervise_check(other, {}, sup), std::runtime_error);
}

// --- calibration starts resume through the fit engine -------------------------

calib::FitProblem
quadratic_problem()
{
    calib::FitProblem p;
    p.residuals = [](const solver::Vector& x) {
        return solver::Vector{x[0] - 2.0, 3.0 * (x[1] - 0.5)};
    };
    p.x0 = {0.5, 0.1};
    p.bounds.lower = {0.0, 0.0};
    p.bounds.upper = {10.0, 10.0};
    return p;
}

TEST(FitResume, JournaledStartsReplayBitIdentically)
{
    calib::FitOptions opts;
    opts.starts = 4;

    // Full run, journaling every start.
    FitJournal journal;
    calib::FitOptions recording = opts;
    recording.resume_lookup = journal.lookup_fn();
    recording.on_start_complete = journal.record_fn();
    const calib::FitOutcome full =
        calib::fit_residuals(quadratic_problem(), recording);
    EXPECT_EQ(journal.size(), 4u);

    // Persist the journal and resume from a *partial* copy (starts 0, 1),
    // as a kill after the second checkpoint would leave it.
    {
        FitJournal cut;
        for (std::size_t k : {std::size_t{0}, std::size_t{1}}) {
            calib::StartRecord r;
            ASSERT_TRUE(journal.lookup(k, r));
            cut.record(k, r);
        }
        cut.load_json(io::Json::parse(cut.to_json().dump(-1)));
        calib::FitOptions resuming = opts;
        resuming.resume_lookup = cut.lookup_fn();
        const calib::FitOutcome resumed =
            calib::fit_residuals(quadratic_problem(), resuming);
        ASSERT_EQ(resumed.starts.size(), full.starts.size());
        EXPECT_EQ(resumed.x, full.x); // bit-identical
        EXPECT_EQ(resumed.loss, full.loss);
        EXPECT_EQ(resumed.convergence, full.convergence);
        for (std::size_t i = 0; i < full.starts.size(); ++i) {
            EXPECT_EQ(resumed.starts[i].seed, full.starts[i].seed);
            EXPECT_EQ(resumed.starts[i].final_loss,
                      full.starts[i].final_loss);
        }
    }

    // Fully-journaled resume recomputes nothing.
    calib::FitOptions replay = opts;
    replay.resume_lookup = journal.lookup_fn();
    const calib::FitOutcome replayed =
        calib::fit_residuals(quadratic_problem(), replay);
    EXPECT_EQ(replayed.x, full.x);
    EXPECT_EQ(replayed.loss, full.loss);
    // Journaled starts replay with their *original* solve counters — the
    // report is indistinguishable from the uninterrupted run's.
    EXPECT_EQ(replayed.model_solves(), full.model_solves());
}

// --- supervised calibrations --------------------------------------------------

struct SmallCalibration {
    calib::ParameterSpace space;
    calib::Dataset data;
    calib::CalibratorOptions opts;
};

/// A DES-generated two-observation dataset and a three-start fit of the
/// cores' fixed cost: every start is one journal unit.
SmallCalibration
small_calibration()
{
    const auto hw = test::small_nic();
    const auto graph = test::single_stage_graph(hw);
    calib::GenerationSpec gen;
    gen.rates_gbps = {4.0, 12.0};
    gen.packet_sizes_bytes = {1024.0};
    gen.root_seed = 5;
    gen.sim.duration = 0.001;
    calib::Dataset data =
        calib::generate_dataset(hw, graph, test::mtu_traffic(4.0), gen);
    calib::ParameterSpace space(calib::Candidate{hw, {graph}});
    space.add("ip.cores.fixed_cost_us");
    calib::CalibratorOptions opts;
    opts.fit.starts = 3;
    opts.fit.seed = 5;
    return {std::move(space), std::move(data), opts};
}

TEST(SuperviseCalibration, ResumeIsByteIdenticalAfterAnyKillPoint)
{
    const SmallCalibration c = small_calibration();
    const std::string baseline =
        calib::to_json(calib::Calibrator(c.space, c.data, c.opts).fit())
            .dump(-1);

    TempDir full("calib_full");
    SupervisorOptions sup;
    sup.dir = full.path();
    sup.checkpoint_every = 1;
    sup.retention = 100;
    const SupervisedCalibration uninterrupted =
        supervise_calibration(c.space, c.data, c.opts, sup);
    EXPECT_EQ(calib::to_json(uninterrupted.report).dump(-1), baseline);
    EXPECT_FALSE(uninterrupted.resume.resumed);
    EXPECT_EQ(uninterrupted.checkpoints, 4u); // 3 starts + final flush
    ASSERT_EQ(publications(full.path(), "calib").size(),
              uninterrupted.checkpoints);

    for (std::uint64_t p = 1; p <= uninterrupted.checkpoints; ++p) {
        TempDir killed("calib_kill_p" + std::to_string(p));
        const KillPoint at =
            clone_killed_at(full.path(), killed.path(), "calib", p);
        SupervisorOptions rsup;
        rsup.dir = killed.path();
        const SupervisedCalibration resumed =
            supervise_calibration(c.space, c.data, c.opts, rsup);
        EXPECT_TRUE(resumed.resume.resumed);
        EXPECT_EQ(resumed.resume.generation, at.generation);
        EXPECT_EQ(resumed.resume.replayed, at.records);
        EXPECT_EQ(resumed.resume.completed, std::min<std::size_t>(p, 3));
        EXPECT_EQ(calib::to_json(resumed.report).dump(-1), baseline)
            << "killed after publication " << p;
    }
}

TEST(SuperviseCalibration, RefusesAForeignCampaignsJournal)
{
    const SmallCalibration c = small_calibration();
    TempDir dir("calib_foreign");
    SupervisorOptions sup;
    sup.dir = dir.path();
    supervise_calibration(c.space, c.data, c.opts, sup);

    calib::CalibratorOptions other = c.opts;
    other.fit.seed = 6; // different campaign, same directory
    EXPECT_THROW(supervise_calibration(c.space, c.data, other, sup),
                 std::runtime_error);
}

// --- supervised single simulations --------------------------------------------

/// A run long enough for several 500-event segments. The simulator
/// references the hardware and graph, so they live here.
struct SegmentedRun {
    core::HardwareModel hw = test::small_nic();
    core::ExecutionGraph graph = test::two_stage_graph(hw);

    sim::NicSimulator make(std::uint64_t seed = 3) const
    {
        sim::SimOptions opts;
        opts.duration = sim::SimTime{0.002};
        opts.seed = seed;
        return sim::NicSimulator(hw, graph, test::mtu_traffic(8.0), opts);
    }
};

TEST(SuperviseSimulation, ResumeIsByteIdenticalAfterAnyKillPoint)
{
    const SegmentedRun run;
    const std::string baseline =
        sim_result_to_json(run.make().run()).dump(-1);

    TempDir full("sim_full");
    SupervisorOptions sup;
    sup.dir = full.path();
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    sim::NicSimulator whole = run.make();
    const SupervisedSimulation uninterrupted =
        supervise_simulation(whole, 500, sup);
    EXPECT_EQ(sim_result_to_json(uninterrupted.result).dump(-1), baseline);
    EXPECT_FALSE(uninterrupted.resume.resumed);
    // One snapshot after every segment but the last, plus the final one.
    EXPECT_EQ(uninterrupted.checkpoints, uninterrupted.segments);

    // Snapshot campaigns publish whole generations, never a log.
    CheckpointStore probe(full.path(), "sim", StoreOptions{1000});
    const auto gens = probe.generations();
    ASSERT_GE(gens.size(), 3u);
    ASSERT_EQ(publications(full.path(), "sim").size(), gens.size());
    for (std::uint64_t keep : {gens.front(), gens[gens.size() / 2]}) {
        TempDir killed("sim_kill_g" + std::to_string(keep));
        clone_killed_at(full.path(), killed.path(), "sim", keep);
        SupervisorOptions rsup;
        rsup.dir = killed.path();
        sim::NicSimulator fresh = run.make();
        const SupervisedSimulation resumed =
            supervise_simulation(fresh, 500, rsup);
        EXPECT_TRUE(resumed.resume.resumed);
        EXPECT_EQ(resumed.resume.generation, keep);
        EXPECT_EQ(resumed.segments, uninterrupted.segments - keep);
        EXPECT_EQ(sim_result_to_json(resumed.result).dump(-1), baseline)
            << "killed after gen " << keep;
    }
}

TEST(SuperviseSimulation, RefusesAnotherRunsSnapshot)
{
    const SegmentedRun run;
    TempDir dir("sim_foreign");
    SupervisorOptions sup;
    sup.dir = dir.path();
    sim::NicSimulator first = run.make(3);
    supervise_simulation(first, 500, sup);

    sim::NicSimulator other = run.make(4); // another seed
    EXPECT_THROW(supervise_simulation(other, 500, sup), std::runtime_error);
}

} // namespace
} // namespace lognic::ckpt
