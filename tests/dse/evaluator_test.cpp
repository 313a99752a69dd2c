/**
 * @file
 * BatchEvaluator accounting: within-batch duplicates cost exactly one
 * model solve (with identical counters at any thread count), a request
 * hits iff an earlier batch scored its config, and constraint-violation
 * messages carry the round-trip double formatter's rendering of the
 * violating value, not a truncated std::to_string.
 */
#include "lognic/dse/explorer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/io/serialize.hpp"

using namespace lognic;
using dse::Config;
using dse::Constraint;
using dse::DesignSpace;
using dse::ExploreOptions;

namespace {

io::Scenario
nf_base(double rate_gbps = 50.0)
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{
        std::move(built.hw), std::move(built.graph),
        core::TrafficProfile::fixed(Bytes{1500.0},
                                    Bandwidth::from_gbps(rate_gbps))};
}

std::vector<dse::ObjectiveSpec>
tput_p99()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

} // namespace

TEST(BatchEvaluator, WithinBatchDuplicatesCostOneSolve)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    // BatchEvaluator holds references: objectives and constraints must
    // outlive it.
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints;

    // Two distinct configs, each submitted multiple times in one batch.
    const std::vector<Config> batch{{3}, {3}, {7}, {3}, {7}};

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ExploreOptions opts;
        opts.des.enabled = false;
        opts.threads = threads;
        std::atomic<std::uint64_t> journaled{0};
        opts.on_eval = [&](const std::string&, const dse::Evaluation&) {
            ++journaled;
        };
        dse::BatchEvaluator ev(space, objectives, constraints, opts);
        const auto scored = ev.run_batch(batch);
        ASSERT_EQ(scored.size(), batch.size());

        // 5 requests, 2 unique configs, 2 solves, 2 journal records —
        // identical at 1 and 8 threads. Within-batch duplicates are
        // recorded as misses (the archive gains the batch after it); the
        // dedup map still collapses them onto one solve.
        EXPECT_EQ(ev.requests(), 5u) << "threads " << threads;
        EXPECT_EQ(ev.solves(), 2u) << "threads " << threads;
        EXPECT_EQ(ev.archive_size(), 2u) << "threads " << threads;
        EXPECT_EQ(journaled.load(), 2u) << "threads " << threads;
        EXPECT_EQ(ev.misses(), 5u) << "threads " << threads;
        EXPECT_EQ(ev.hits(), 0u) << "threads " << threads;

        // Duplicates resolve to bitwise-identical scores.
        for (std::size_t o = 0; o < scored[0].objectives.size(); ++o) {
            EXPECT_EQ(scored[0].objectives[o], scored[1].objectives[o]);
            EXPECT_EQ(scored[0].objectives[o], scored[3].objectives[o]);
            EXPECT_EQ(scored[2].objectives[o], scored[4].objectives[o]);
        }
        EXPECT_EQ(scored[0].key, scored[1].key);
        EXPECT_EQ(scored[2].key, scored[4].key);
    }
}

TEST(BatchEvaluator, DuplicatesAcrossBatchesHitTheCache)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints;
    ExploreOptions opts;
    opts.des.enabled = false;
    dse::BatchEvaluator ev(space, objectives, constraints, opts);

    (void)ev.run_batch({{5}});
    (void)ev.run_batch({{5}, {6}});
    EXPECT_EQ(ev.requests(), 3u);
    EXPECT_EQ(ev.solves(), 2u);
    EXPECT_EQ(ev.hits(), 1u);
}

TEST(BatchEvaluator, HitIffScoredInAnEarlierBatch)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("traffic.rate_gbps", {5.0, 10.0, 20.0});
    const auto objectives = tput_p99();
    // Offered 5 or 10 Gb/s cannot carry 15 Gb/s: the pruner rejects
    // those configs without a solve.
    Constraint floor;
    floor.metric = "throughput_gbps";
    floor.lower = 15.0;
    const std::vector<Constraint> constraints{floor};

    // Repeats inside a batch, across batches, and an empty batch.
    const std::vector<std::vector<Config>> stream{
        {{0, 0}, {1, 2}, {0, 0}, {2, 1}},
        {{1, 2}, {3, 2}, {3, 2}, {0, 0}, {4, 0}},
        {},
        {{4, 0}, {4, 0}, {5, 2}, {2, 1}, {6, 1}},
        {{5, 2}, {6, 1}, {1, 2}, {6, 1}, {7, 2}, {0, 0}},
    };
    // A journal from an earlier run answers three configs, one of which
    // the pruner would reject: replays bypass it.
    std::map<std::string, dse::Evaluation> journal;
    for (const Config& c : std::vector<Config>{{3, 2}, {4, 0}, {7, 2}})
        journal[space.canonical_key(c)] =
            dse::evaluate_config(space, c, objectives, constraints);

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ExploreOptions opts;
        opts.des.enabled = false;
        opts.threads = threads;
        std::uint64_t replays = 0;
        opts.resume_eval = [&](const std::string& key,
                               dse::Evaluation& out) {
            const auto it = journal.find(key);
            if (it == journal.end())
                return false;
            out = it->second;
            ++replays;
            return true;
        };
        dse::Pruner pruner(space, constraints);
        dse::BatchEvaluator ev(space, objectives, constraints, opts,
                               &pruner);

        // Reference recount of the batch stream.
        std::set<std::string> scored;
        std::map<std::string, dse::ScoredConfig> first;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (const auto& batch : stream) {
            const auto out = ev.run_batch(batch);
            ASSERT_EQ(out.size(), batch.size());
            std::set<std::string> this_batch;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const std::string key = space.canonical_key(batch[i]);
                EXPECT_EQ(out[i].key, key);
                EXPECT_EQ(out[i].config, batch[i]);
                if (scored.count(key) != 0)
                    ++hits;
                else
                    ++misses;
                this_batch.insert(key);
                // Every answer for a key is the one it was first scored
                // with.
                const auto it = first.emplace(key, out[i]).first;
                EXPECT_EQ(out[i].pruned, it->second.pruned) << key;
                EXPECT_EQ(out[i].feasible, it->second.feasible) << key;
                EXPECT_EQ(out[i].why, it->second.why) << key;
                if (!out[i].pruned) {
                    EXPECT_EQ(out[i].objectives, it->second.objectives)
                        << key;
                }
            }
            scored.insert(this_batch.begin(), this_batch.end());
            EXPECT_EQ(ev.hits(), hits) << "threads " << threads;
            EXPECT_EQ(ev.misses(), misses) << "threads " << threads;
            EXPECT_EQ(ev.requests(), hits + misses)
                << "threads " << threads;
            EXPECT_EQ(ev.archive_size(), scored.size())
                << "threads " << threads;
        }
        // By hand: 20 requests over 8 unique configs; 2 + 3 + 5 requests
        // of the second, fourth and fifth batches repeat earlier ones.
        EXPECT_EQ(hits, 10u);
        EXPECT_EQ(misses, 10u);
        EXPECT_EQ(scored.size(), 8u);
        // Each unique config was resolved once: replayed, pruned or
        // solved.
        EXPECT_EQ(replays, journal.size());
        EXPECT_GT(ev.pruned(), 0u);
        EXPECT_EQ(replays + ev.pruned() + ev.solves(), scored.size());
    }
}

TEST(EvaluateConfig, ViolationMessageUsesRoundTripDoubleFormat)
{
    // A near-boundary violation: offered 10.1 Gb/s against a 10.2 floor.
    // The violating value is not exactly representable, so the message
    // must round-trip the full double — "%.17g", not std::to_string's
    // fixed six decimals.
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {10.1});
    Constraint floor;
    floor.metric = "throughput_gbps";
    floor.lower = 10.2;

    const auto eval =
        dse::evaluate_config(space, {0}, tput_p99(), {floor});
    ASSERT_FALSE(eval.feasible);
    const double v = eval.objectives[0];
    EXPECT_EQ(eval.why, "constraint violated: throughput_gbps = "
                            + io::format_double(v));

    // The rendered value parses back to the exact violating double.
    const std::string rendered = io::format_double(v);
    EXPECT_EQ(std::strtod(rendered.c_str(), nullptr), v);
    // And it is not the six-decimal truncation.
    EXPECT_NE(eval.why, "constraint violated: throughput_gbps = "
                            + std::to_string(v));
}
