/**
 * @file
 * The randomized-trial harness: deterministic reports (byte-identical at
 * any thread count), clean runs on honest code, minimal reproducing specs
 * on failure, and a golden corpus that loads, replays, and round-trips.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check_test_helpers.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/runner/seed.hpp"

namespace lognic::check {
namespace {

std::vector<std::filesystem::path>
corpus_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(LOGNIC_CHECK_CORPUS_DIR))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

CorpusEntry
load_entry(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return corpus_entry_from_json(io::Json::parse(buf.str()));
}

TEST(RunTrials, SmallBatchIsCleanAndAccountedFor)
{
    CheckOptions copts;
    copts.trials = 5;
    copts.seed = 7;
    copts.duration = 0.02;
    const CheckReport report = run_trials(copts);
    EXPECT_EQ(report.trials, 5u);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_TRUE(report.failures.empty());
    // Each trial runs at least the base simulation, plus the
    // monotonicity ladder's three rungs when enabled.
    EXPECT_GE(report.sims_run, 5u * 4u);
}

TEST(RunTrials, SameSeedSameReportJson)
{
    CheckOptions copts;
    copts.trials = 3;
    copts.seed = 123;
    copts.duration = 0.02;
    EXPECT_EQ(to_json(run_trials(copts)).dump(2),
              to_json(run_trials(copts)).dump(2));
}

TEST(RunTrials, FailureCarriesMinimalReproducingSpec)
{
    // Impossible tolerance: every trial must fail, and the harness must
    // attach a spec that still reproduces some violation.
    CheckOptions copts;
    copts.trials = 1;
    copts.seed = 7;
    copts.duration = 0.02;
    copts.conformance.monotonic_slack_rel = -10.0;
    copts.conformance.monotonic_slack_abs_us = 0.0;
    const CheckReport report = run_trials(copts);
    ASSERT_EQ(report.failures.size(), 1u);
    const TrialFailure& f = report.failures[0];
    EXPECT_FALSE(f.violations.empty());
    ASSERT_TRUE(f.minimal_spec.contains("scenario"));
    ASSERT_TRUE(f.minimal_spec.contains("options"));
    // The spec is self-contained: it parses back into a runnable entry
    // that still fails under the same tolerances.
    const CorpusEntry entry = corpus_entry_from_json(f.minimal_spec);
    EXPECT_FALSE(check_scenario(entry.scenario, entry.options, copts,
                                entry.monotonicity)
                     .empty());
    // Both seeds survive a dump and parse exactly, even above 2^53 where
    // a double would round them, so the repro replays the same sample
    // path as the trial that failed.
    const std::uint64_t sim_seed = runner::derive_seed(f.generator_seed, 1);
    ASSERT_GT(sim_seed, std::uint64_t{1} << 53);
    const CorpusEntry reparsed =
        corpus_entry_from_json(io::Json::parse(f.minimal_spec.dump(2)));
    EXPECT_EQ(reparsed.options.seed, sim_seed);
    const io::Json dumped = io::Json::parse(to_json(report).dump(2));
    EXPECT_EQ(io::uint_at<std::uint64_t>(
                  dumped.at("failures").as_array()[0], "generator_seed"),
              f.generator_seed);
}

/// Every thread count under test; 1 is the serial reference.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8};

/// The serial report of @p base, after checking that every thread count
/// in kThreadCounts dumps to the same bytes.
CheckReport
expect_identical_at_any_thread_count(const CheckOptions& base)
{
    CheckOptions serial = base;
    serial.threads = 1;
    const CheckReport reference = run_trials(serial);
    const std::string expected = to_json(reference).dump(2);
    for (const std::size_t threads : kThreadCounts) {
        CheckOptions copts = base;
        copts.threads = threads;
        EXPECT_EQ(to_json(run_trials(copts)).dump(2), expected)
            << "trials=" << base.trials << " threads=" << threads;
    }
    return reference;
}

TEST(RunTrials, ReportIsIdenticalAtAnyThreadCount)
{
    CheckOptions copts;
    copts.trials = 12;
    copts.seed = 7;
    copts.duration = 0.005;
    EXPECT_EQ(expect_identical_at_any_thread_count(copts).trials, 12u);

    // The impossible tolerance of FailureCarriesMinimalReproducingSpec:
    // every trial fails and is shrunk, so failures and their specs must
    // come back in index order.
    copts.trials = 6;
    copts.conformance.monotonic_slack_rel = -10.0;
    copts.conformance.monotonic_slack_abs_us = 0.0;
    const CheckReport failing = expect_identical_at_any_thread_count(copts);
    ASSERT_EQ(failing.failures.size(), 6u);
    for (std::size_t i = 0; i < failing.failures.size(); ++i)
        EXPECT_EQ(failing.failures[i].name, "trial-" + std::to_string(i));
}

TEST(RunTrials, LowestIndexErrorIsRethrown)
{
    // Trial 2's hook holds back until trial 5's has thrown (or a serial
    // run, which never reaches trial 5, times out), so at several threads
    // trial 5 fails first in time; trial 2's error must still win.
    for (const std::size_t threads : kThreadCounts) {
        std::atomic<bool> five_threw{false};
        CheckOptions copts;
        copts.trials = 8;
        copts.seed = 7;
        copts.duration = 0.001;
        copts.monotonicity = false;
        copts.minimize = false;
        copts.threads = threads;
        copts.on_trial_complete = [&](const std::string& key,
                                      const TrialOutcome&) {
            if (key == "trial:2") {
                const auto give_up = std::chrono::steady_clock::now()
                    + std::chrono::milliseconds(200);
                while (!five_threw.load()
                       && std::chrono::steady_clock::now() < give_up)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                throw std::runtime_error("trial 2 failed");
            }
            if (key == "trial:5") {
                five_threw.store(true);
                throw std::runtime_error("trial 5 failed");
            }
        };
        try {
            run_trials(copts);
            ADD_FAILURE() << "threads=" << threads << ": nothing thrown";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "trial 2 failed")
                << "threads=" << threads;
        }
    }
}

TEST(Corpus, EntriesLoadAndRoundTrip)
{
    const auto files = corpus_files();
    ASSERT_GE(files.size(), 3u);
    for (const auto& path : files) {
        const CorpusEntry entry = load_entry(path);
        EXPECT_FALSE(entry.name.empty()) << path;
        // to_json(corpus_entry_from_json(x)) is the identity on dumps.
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(to_json(entry).dump(2) + "\n", buf.str()) << path;
    }
}

TEST(Corpus, GoldenEntriesReplayClean)
{
    std::vector<CorpusEntry> entries;
    for (const auto& path : corpus_files())
        entries.push_back(load_entry(path));
    const CheckReport report = replay_corpus(entries, {});
    EXPECT_EQ(report.corpus_entries, entries.size());
    EXPECT_EQ(report.violations, 0u)
        << to_json(report).dump(2);
}

TEST(Corpus, ReplayIsIdenticalAtAnyThreadCount)
{
    std::vector<CorpusEntry> entries;
    for (const auto& path : corpus_files())
        entries.push_back(load_entry(path));
    CheckOptions serial;
    serial.threads = 1;
    const std::string expected =
        to_json(replay_corpus(entries, serial)).dump(2);
    for (const std::size_t threads : kThreadCounts) {
        CheckOptions copts;
        copts.threads = threads;
        EXPECT_EQ(to_json(replay_corpus(entries, copts)).dump(2), expected)
            << "threads=" << threads;
    }
}

TEST(Report, MergeAddsCountsAndConcatenatesFailures)
{
    CheckReport a;
    a.trials = 2;
    a.violations = 1;
    a.failures.push_back(TrialFailure{"x", 1, false, {}, io::Json{}});
    CheckReport b;
    b.corpus_entries = 3;
    b.sims_run = 9;
    const CheckReport m = merge(a, b);
    EXPECT_EQ(m.trials, 2u);
    EXPECT_EQ(m.corpus_entries, 3u);
    EXPECT_EQ(m.sims_run, 9u);
    EXPECT_EQ(m.violations, 1u);
    EXPECT_EQ(m.failures.size(), 1u);
}

TEST(Report, EmptyFailuresSerializeAsArray)
{
    const CheckReport report;
    const io::Json j = to_json(report);
    ASSERT_TRUE(j.contains("failures"));
    EXPECT_TRUE(j.at("failures").is_array()); // not null / not an object
}

} // namespace
} // namespace lognic::check
