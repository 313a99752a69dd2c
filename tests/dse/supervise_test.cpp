/**
 * @file
 * Kill-tolerant exploration supervision: ExploreJournal round-trips
 * bit-exactly, and an exploration killed after any checkpoint and
 * resumed produces a FrontierReport byte-identical to the uninterrupted
 * run — including the memo-cache counters in the report, which journal
 * replay must not perturb. The kill is simulated at the storage layer
 * exactly like tests/ckpt/resume_test.cpp: checkpoint after every
 * completion, clone the directory cut to the state right after
 * publication g (tests/ckpt/kill_points.hpp).
 */
#include "lognic/dse/supervise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/io/checkpoint.hpp"
#include "../ckpt/kill_points.hpp"

using namespace lognic;

namespace {

namespace fs = std::filesystem;
using test::KillPoint;
using test::TempDir;

test::KillPoint
clone_killed_at(const std::string& src, const std::string& dst,
                std::uint64_t publication)
{
    return test::clone_killed_at(src, dst, dse::kExploreCheckpointKind,
                                 publication);
}

io::Scenario
nf_base()
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{std::move(built.hw), std::move(built.graph),
                        core::TrafficProfile::fixed(
                            Bytes{1500.0}, Bandwidth::from_gbps(50.0))};
}

dse::DesignSpace
placement_space()
{
    dse::DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    return space;
}

std::vector<dse::ObjectiveSpec>
tput_p99()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

dse::ExploreOptions
fast_opts()
{
    dse::ExploreOptions opts;
    opts.des.replications = 1;
    opts.des.duration = 0.002;
    return opts;
}

} // namespace

TEST(ExploreJournal, BitExactThroughDumpAndParse)
{
    dse::ExploreJournal journal;

    dse::Evaluation good;
    good.objectives = {21.677419354838712, 4708.091500455128};
    journal.record_eval("cfg-a", good);

    dse::Evaluation bad;
    bad.objectives = {std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()};
    bad.feasible = false;
    bad.finite = false;
    bad.why = "evaluation failed: \"quoted\" and\nnewline";
    journal.record_eval("cfg-b", bad);

    dse::DesValidation v;
    v.ok = true;
    v.seed = 0xbb40e38410af771aull;
    v.replications = 3;
    v.delivered_gbps = 21.558;
    v.mean_latency_us = 160.66507720949431;
    v.p99_latency_us = 184.7013804764558;
    v.drop_rate = 0.56529433642501503;
    v.throughput_disagreement = 0.0055394449781385989;
    v.p99_disagreement = -24.490288639479211;
    journal.record_des("cfg-a", v);

    const io::Json j = journal.to_json();
    dse::ExploreJournal back;
    back.load_json(io::Json::parse(j.dump(-1)));
    EXPECT_EQ(back.evals.size(), 2u);
    EXPECT_EQ(back.des.size(), 1u);
    // Re-serialization equality: every hex double/u64 survives untouched.
    EXPECT_EQ(back.to_json().dump(-1), j.dump(-1));

    dse::Evaluation eval_back;
    ASSERT_TRUE(back.evals.lookup("cfg-b", eval_back));
    EXPECT_TRUE(std::isnan(eval_back.objectives[0]));
    EXPECT_TRUE(std::isinf(eval_back.objectives[1]));
    dse::DesValidation des_back;
    ASSERT_TRUE(back.des.lookup("cfg-a", des_back));
    EXPECT_EQ(des_back.seed, v.seed);
    EXPECT_EQ(des_back.delivered_gbps, v.delivered_gbps);

    EXPECT_THROW(back.load_json(io::Json::parse("{\"evals\": 3}")),
                 std::runtime_error);
}

TEST(ExploreJournal, PrunedFlagRoundTripsAndDefaultsFalse)
{
    dse::ExploreJournal journal;
    dse::Evaluation pruned;
    pruned.objectives = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::quiet_NaN()};
    pruned.feasible = false;
    pruned.pruned = true;
    pruned.why = "pruned: constraint violated: throughput_gbps = 5";
    journal.record_eval("cfg-pruned", pruned);
    dse::Evaluation solved;
    solved.objectives = {21.0, 4700.0};
    journal.record_eval("cfg-solved", solved);

    dse::ExploreJournal back;
    back.load_json(io::Json::parse(journal.to_json().dump(-1)));
    dse::Evaluation e;
    ASSERT_TRUE(back.evals.lookup("cfg-pruned", e));
    EXPECT_TRUE(e.pruned);
    EXPECT_FALSE(e.feasible);
    EXPECT_EQ(e.why, pruned.why);
    ASSERT_TRUE(back.evals.lookup("cfg-solved", e));
    EXPECT_FALSE(e.pruned);

    // A pre-pruning journal has no "pruned" field: every entry was a
    // real solve, and the parser must default accordingly.
    std::string legacy = journal.to_json().dump(-1);
    for (const std::string& needle :
         {std::string("\"pruned\":true,"), std::string("\"pruned\":false,")})
        for (std::size_t pos; (pos = legacy.find(needle))
                              != std::string::npos;)
            legacy.erase(pos, needle.size());
    ASSERT_EQ(legacy.find("\"pruned\":"), std::string::npos);
    dse::ExploreJournal old;
    old.load_json(io::Json::parse(legacy));
    ASSERT_TRUE(old.evals.lookup("cfg-pruned", e));
    EXPECT_FALSE(e.pruned);
}

TEST(ExploreJournal, DuplicateKeysAreRejected)
{
    // A journal naming one config twice would silently drop one outcome;
    // like every other journal, refuse it — in either array.
    dse::ExploreJournal journal;
    dse::Evaluation e;
    e.objectives = {21.0, 4700.0};
    journal.record_eval("cfg", e);
    dse::DesValidation v;
    v.ok = true;
    journal.record_des("cfg", v);
    const io::Json doc = journal.to_json();
    const io::Json eval_entry = doc.at("evals").as_array().at(0);
    const io::Json des_entry = doc.at("des").as_array().at(0);

    io::Json twice_evals;
    twice_evals.set("evals", io::Json(io::JsonArray{eval_entry, eval_entry}));
    twice_evals.set("des", doc.at("des"));
    io::Json twice_des;
    twice_des.set("evals", doc.at("evals"));
    twice_des.set("des", io::Json(io::JsonArray{des_entry, des_entry}));

    dse::ExploreJournal back;
    EXPECT_THROW(back.load_json(io::Json::parse(twice_evals.dump(-1))),
                 std::runtime_error);
    EXPECT_THROW(back.load_json(io::Json::parse(twice_des.dump(-1))),
                 std::runtime_error);
    // The well-formed document still loads.
    back.load_json(io::Json::parse(doc.dump(-1)));
    EXPECT_EQ(back.size(), 2u);
}

TEST(SuperviseExploration, PrunedResumeMatchesUnprunedBaseline)
{
    // The cross-mode contract, through a kill: an uninterrupted
    // --prune=off run must byte-match a --prune=on supervised campaign
    // killed after an early checkpoint and resumed. Prune mode is
    // excluded from the campaign fingerprint, so the journal replays.
    auto space = placement_space();
    space.add("traffic.rate_gbps", {5.0, 10.0, 25.0, 50.0});
    const auto objectives = tput_p99();
    dse::Constraint floor;
    floor.metric = "throughput_gbps";
    floor.lower = 15.0;
    const std::vector<dse::Constraint> constraints{floor};

    auto off = fast_opts();
    off.des.enabled = false;
    off.prune = dse::PruneMode::kOff;
    const auto baseline = dse::explore(space, objectives, constraints, off);
    const std::string want =
        dse::frontier_report_to_json(baseline).dump(-1);

    auto on = off;
    on.prune = dse::PruneMode::kOn;
    TempDir full_dir("dse_prune_full");
    ckpt::SupervisorOptions sup;
    sup.dir = full_dir.path();
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    const auto full =
        dse::supervise_exploration(space, objectives, constraints, on, sup);
    EXPECT_EQ(dse::frontier_report_to_json(full.report).dump(-1), want);
    EXPECT_GT(full.report.pruned, 0u);
    ASSERT_GE(full.checkpoints, 2u);

    TempDir kill_dir("dse_prune_kill");
    clone_killed_at(full_dir.path(), kill_dir.path(), 1);
    ckpt::SupervisorOptions resume_sup;
    resume_sup.dir = kill_dir.path();
    auto on8 = on;
    on8.threads = 8;
    const auto resumed = dse::supervise_exploration(
        space, objectives, constraints, on8, resume_sup);
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(-1), want);
    // Journal replay preserves the pruned flags, so the report's pruned
    // count is resume-deterministic too.
    EXPECT_EQ(resumed.report.pruned, full.report.pruned);

    // And the off-mode resumes a journal written with pruning on.
    TempDir kill_dir2("dse_prune_kill_off");
    clone_killed_at(full_dir.path(), kill_dir2.path(), 1);
    ckpt::SupervisorOptions resume_sup2;
    resume_sup2.dir = kill_dir2.path();
    const auto resumed_off = dse::supervise_exploration(
        space, objectives, constraints, off, resume_sup2);
    EXPECT_TRUE(resumed_off.resume.resumed);
    EXPECT_EQ(dse::frontier_report_to_json(resumed_off.report).dump(-1),
              want);
}

TEST(SuperviseExploration, SeamsMustBeUnset)
{
    TempDir dir("dse_seams");
    ckpt::SupervisorOptions sup;
    sup.dir = dir.path();
    dse::ExploreOptions opts = fast_opts();
    opts.on_eval = [](const std::string&, const dse::Evaluation&) {};
    EXPECT_THROW(dse::supervise_exploration(placement_space(), tput_p99(),
                                            {}, opts, sup),
                 std::invalid_argument);
    EXPECT_THROW(dse::supervise_exploration(placement_space(), tput_p99(),
                                            {}, fast_opts(),
                                            ckpt::SupervisorOptions{}),
                 std::invalid_argument); // empty dir
}

TEST(SuperviseExploration, UninterruptedMatchesUnsupervised)
{
    TempDir dir("dse_plain");
    ckpt::SupervisorOptions sup;
    sup.dir = dir.path();
    const auto space = placement_space();
    const auto supervised = dse::supervise_exploration(
        space, tput_p99(), {}, fast_opts(), sup);
    EXPECT_FALSE(supervised.resume.resumed);
    EXPECT_GE(supervised.checkpoints, 1u); // at least the final flush

    const auto plain = dse::explore(space, tput_p99(), {}, fast_opts());
    EXPECT_EQ(dse::frontier_report_to_json(supervised.report).dump(-1),
              dse::frontier_report_to_json(plain).dump(-1));
}

TEST(SuperviseExploration, ResumeAfterKillIsByteIdentical)
{
    const auto space = placement_space();
    const auto objectives = tput_p99();

    // Uninterrupted supervised run, checkpointing after every completion
    // so every kill point exists on disk.
    TempDir full_dir("dse_full");
    ckpt::SupervisorOptions sup;
    sup.dir = full_dir.path();
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    const auto full = dse::supervise_exploration(space, objectives, {},
                                                 fast_opts(), sup);
    const std::string want =
        dse::frontier_report_to_json(full.report).dump(-1);
    ASSERT_GE(full.checkpoints, 3u);
    const std::size_t units = full.checkpoints - 1; // all but the final flush
    ASSERT_EQ(
        test::publications(full_dir.path(), dse::kExploreCheckpointKind).size(),
        full.checkpoints);

    // Resume from the state a SIGKILL would leave after each publication.
    for (std::uint64_t p = 1; p <= full.checkpoints; ++p) {
        TempDir kill_dir("dse_kill_" + std::to_string(p));
        const KillPoint at =
            clone_killed_at(full_dir.path(), kill_dir.path(), p);
        ckpt::SupervisorOptions resume_sup;
        resume_sup.dir = kill_dir.path();
        const auto resumed = dse::supervise_exploration(
            space, objectives, {}, fast_opts(), resume_sup);
        EXPECT_TRUE(resumed.resume.resumed);
        EXPECT_EQ(resumed.resume.generation, at.generation);
        EXPECT_EQ(resumed.resume.replayed, at.records);
        EXPECT_EQ(resumed.resume.completed, std::min<std::size_t>(p, units));
        EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(-1),
                  want)
            << "kill after publication " << p;
    }

    // And at a different thread count, still byte-identical.
    TempDir kill_dir("dse_kill_threads");
    clone_killed_at(full_dir.path(), kill_dir.path(), 2);
    ckpt::SupervisorOptions resume_sup;
    resume_sup.dir = kill_dir.path();
    auto opts8 = fast_opts();
    opts8.threads = 8;
    const auto resumed = dse::supervise_exploration(space, objectives, {},
                                                    opts8, resume_sup);
    EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(-1), want);
}

TEST(SuperviseExploration, TornLogTailAtEveryOffsetResumesByteIdentically)
{
    const auto space = placement_space();
    const auto objectives = tput_p99();
    // Model evaluations only, so each of the many resumes below is cheap.
    auto opts = fast_opts();
    opts.des.enabled = false;
    TempDir full_dir("dse_torn_full");
    ckpt::SupervisorOptions sup;
    sup.dir = full_dir.path();
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    const auto full =
        dse::supervise_exploration(space, objectives, {}, opts, sup);
    const std::string want =
        dse::frontier_report_to_json(full.report).dump(-1);

    // The last publication that appended, cut anywhere inside its record:
    // the newest log of a kill that landed mid-append.
    const auto pubs =
        test::publications(full_dir.path(), dse::kExploreCheckpointKind);
    std::uint64_t p = pubs.size();
    while (p > 0 && pubs[p - 1].records == 0)
        --p;
    ASSERT_GT(p, 0u);
    TempDir kill_dir("dse_torn");
    const KillPoint at = clone_killed_at(full_dir.path(), kill_dir.path(), p);
    const ckpt::CheckpointStore probe(kill_dir.path(),
                                      dse::kExploreCheckpointKind);
    const std::string log = probe.log_path_for(at.generation);
    const std::size_t start =
        test::log_prefix_bytes(probe, at.generation, at.records - 1);
    const std::size_t end = fs::file_size(log);
    for (std::size_t cut = start + 1; cut < end; ++cut) {
        clone_killed_at(full_dir.path(), kill_dir.path(), p);
        fs::resize_file(log, cut);
        std::vector<std::string> logged;
        ckpt::SupervisorOptions resume_sup;
        resume_sup.dir = kill_dir.path();
        resume_sup.log = [&logged](const std::string& m) {
            logged.push_back(m);
        };
        const auto resumed = dse::supervise_exploration(
            space, objectives, {}, opts, resume_sup);
        ASSERT_EQ(resumed.resume.rejected.size(), 1u) << cut;
        EXPECT_EQ(resumed.resume.rejected[0].path, log);
        EXPECT_EQ(resumed.resume.replayed, at.records - 1);
        bool named = false;
        for (const auto& m : logged)
            named = named
                || (m.find(log + " truncated at byte " + std::to_string(start))
                    != std::string::npos);
        EXPECT_TRUE(named) << cut;
        EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(-1), want)
            << "log cut at byte " << cut;
    }
}

TEST(SuperviseExploration, ForeignCampaignRefused)
{
    TempDir dir("dse_foreign");
    ckpt::SupervisorOptions sup;
    sup.dir = dir.path();
    const auto space = placement_space();
    (void)dse::supervise_exploration(space, tput_p99(), {}, fast_opts(),
                                     sup);

    // Same directory, different seed: a different campaign.
    auto other = fast_opts();
    other.seed = 1234;
    EXPECT_THROW(dse::supervise_exploration(space, tput_p99(), {}, other,
                                            sup),
                 std::runtime_error);

    // --no-resume starts fresh instead of throwing.
    ckpt::SupervisorOptions fresh = sup;
    fresh.resume = false;
    EXPECT_NO_THROW(dse::supervise_exploration(space, tput_p99(), {},
                                               other, fresh));
}

TEST(SuperviseExploration, CorruptNewestGenerationIsSkipped)
{
    TempDir dir("dse_corrupt");
    ckpt::SupervisorOptions sup;
    sup.dir = dir.path();
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    const auto space = placement_space();
    const auto full = dse::supervise_exploration(space, tput_p99(), {},
                                                 fast_opts(), sup);
    const std::string want =
        dse::frontier_report_to_json(full.report).dump(-1);

    // Truncate the newest generation mid-payload: a torn write.
    ckpt::CheckpointStore probe(dir.path(), dse::kExploreCheckpointKind,
                                ckpt::StoreOptions{1000});
    const auto gens = probe.generations();
    ASSERT_FALSE(gens.empty());
    const std::string newest = probe.path_for(gens.back());
    const auto contents = io::read_file_if_exists(newest);
    ASSERT_TRUE(contents.has_value());
    io::atomic_write_file(newest,
                          contents->substr(0, contents->size() / 2));

    const auto resumed = dse::supervise_exploration(space, tput_p99(), {},
                                                    fast_opts(), sup);
    EXPECT_TRUE(resumed.resume.resumed);
    ASSERT_FALSE(resumed.resume.rejected.empty());
    EXPECT_EQ(resumed.resume.rejected.front().path, newest);
    EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(-1), want);
}
