// The exploration engine: strategies, determinism across thread counts,
// memo-cache behavior, constraints, quarantine, DES validation of the
// frontier, and metrics publication.
#include "lognic/dse/explorer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/obs/metrics.hpp"

using namespace lognic;
using dse::Config;
using dse::DesignSpace;
using dse::ExploreOptions;

namespace {

io::Scenario
nf_base(double rate_gbps = 20.0)
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{
        std::move(built.hw), std::move(built.graph),
        core::TrafficProfile::fixed(Bytes{1500.0},
                                    Bandwidth::from_gbps(rate_gbps))};
}

DesignSpace
placement_space()
{
    DesignSpace space(nf_base(50.0));
    space.add("placement.nf_chain", {});
    return space;
}

std::vector<dse::ObjectiveSpec>
tput_p99()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

ExploreOptions
fast_opts()
{
    ExploreOptions opts;
    opts.des.replications = 1;
    opts.des.duration = 0.002;
    return opts;
}

} // namespace

TEST(ObjectiveNames, SensesAndRejection)
{
    EXPECT_EQ(dse::objective_from_name("throughput_gbps").sense,
              dse::Sense::kMaximize);
    EXPECT_EQ(dse::objective_from_name("capacity_gbps").sense,
              dse::Sense::kMaximize);
    EXPECT_EQ(dse::objective_from_name("p99_latency_us").sense,
              dse::Sense::kMinimize);
    EXPECT_EQ(dse::objective_from_name("cost").sense, dse::Sense::kMinimize);
    EXPECT_THROW(dse::objective_from_name("bogus"), std::invalid_argument);
    EXPECT_THROW(dse::strategy_from_name("bogus"), std::invalid_argument);
    EXPECT_EQ(dse::strategy_from_name("nsga2"), dse::Strategy::kNsga2);
}

TEST(EvaluateConfig, ObjectivesAndConstraints)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {5.0, 500.0});
    const auto objectives = tput_p99();

    const auto ok = dse::evaluate_config(space, {0}, objectives, {});
    ASSERT_EQ(ok.objectives.size(), 2u);
    EXPECT_TRUE(ok.feasible);
    EXPECT_TRUE(ok.finite);
    EXPECT_NEAR(ok.objectives[0], 5.0, 0.5); // delivered ~ offered

    // 500 Gbps into a ~22 Gbps chain: massive drops -> infeasible under a
    // drop-rate ceiling.
    dse::Constraint cap;
    cap.metric = "drop_rate";
    cap.upper = 0.01;
    const auto overload =
        dse::evaluate_config(space, {1}, objectives, {cap});
    EXPECT_FALSE(overload.feasible);
    EXPECT_NE(overload.why.find("drop_rate"), std::string::npos);
}

TEST(EvaluateConfig, ThrowingKnobQuarantines)
{
    DesignSpace space(nf_base());
    dse::Knob poison;
    poison.name = "poison";
    poison.values = {0.0, 1.0};
    poison.apply = [](io::Scenario&, double v) {
        if (v > 0.5)
            throw std::runtime_error("deliberately broken config");
    };
    space.add_custom(std::move(poison));
    const auto objectives = tput_p99();

    const auto bad = dse::evaluate_config(space, {1}, objectives, {});
    EXPECT_FALSE(bad.finite);
    EXPECT_FALSE(bad.feasible);
    ASSERT_EQ(bad.objectives.size(), 2u);
    EXPECT_TRUE(std::isnan(bad.objectives[0]));
    EXPECT_NE(bad.why.find("deliberately broken"), std::string::npos);

    // And end to end: quarantined configs are counted but never surface
    // in the frontier.
    auto opts = fast_opts();
    opts.des.enabled = false;
    const auto report =
        dse::explore(space, objectives, {}, opts);
    EXPECT_EQ(report.quarantined, 1u);
    for (const auto& e : report.frontier)
        EXPECT_EQ(e.config[0], 0u);
}

TEST(Explore, ExhaustiveFindsOptPlacementOnFrontier)
{
    const auto space = placement_space();
    auto opts = fast_opts();
    obs::MetricsRegistry metrics;
    const auto report =
        dse::explore(space, tput_p99(), {}, opts, &metrics);

    EXPECT_EQ(report.evaluated, 16u);
    EXPECT_EQ(report.requests, 16u);
    ASSERT_FALSE(report.frontier.empty());

    // The paper's MTU conclusion must be on the frontier: the
    // accelerator-only placement, level 15, has the best modelled
    // throughput, so nothing can dominate it.
    EXPECT_EQ(apps::all_placements()[15].to_string(),
              apps::accelerator_only_placement().to_string());
    bool found = false;
    for (const auto& e : report.frontier)
        found = found || e.config[0] == 15u;
    EXPECT_TRUE(found);

    // Frontier members carry DES validation with disagreement data.
    for (const auto& e : report.frontier) {
        EXPECT_TRUE(e.des_validated);
        EXPECT_TRUE(e.des.ok);
        EXPECT_EQ(e.des.replications, 1u);
    }

    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counters.at("dse.requests"), 16u);
    EXPECT_EQ(snap.counters.at("dse.evaluations"), 16u);
    EXPECT_EQ(snap.counters.at("dse.frontier.size"),
              report.frontier.size());
    EXPECT_GE(snap.counters.at("dse.des.validated"), 1u);
}

TEST(Explore, ExhaustiveRefusesOversizedSpace)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {1.0, 2.0, 3.0, 4.0});
    auto opts = fast_opts();
    opts.exhaustive_limit = 3;
    EXPECT_THROW(dse::explore(space, tput_p99(), {}, opts),
                 std::invalid_argument);
}

TEST(Explore, ReportByteIdenticalAcrossThreadCounts)
{
    const auto space = placement_space();
    auto opts = fast_opts();
    opts.threads = 1;
    const auto serial = dse::frontier_report_to_json(
                            dse::explore(space, tput_p99(), {}, opts))
                            .dump(-1);
    opts.threads = 8;
    const auto parallel = dse::frontier_report_to_json(
                              dse::explore(space, tput_p99(), {}, opts))
                              .dump(-1);
    EXPECT_EQ(serial, parallel);
}

TEST(Explore, MutationHitsTheCacheAndIsDeterministic)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps",
              {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0});
    space.add("vertex.arm.parallelism", {1.0, 2.0, 4.0, 8.0});
    space.add("interface_gbps", {25.0, 50.0, 100.0});

    auto opts = fast_opts();
    opts.strategy = dse::Strategy::kMutation;
    opts.budget = 128;
    opts.population = 8;
    opts.des.enabled = false;
    opts.threads = 1;

    const auto a = dse::explore(space, tput_p99(), {}, opts);
    // Stable-frontier neighbor revisits MUST hit the memo cache — the
    // acceptance gate for the memoized backend.
    EXPECT_GT(a.cache_hits, 0u);
    EXPECT_EQ(a.requests, a.cache_hits + a.cache_misses);
    EXPECT_LE(a.evaluated, a.cache_misses);

    opts.threads = 4;
    const auto b = dse::explore(space, tput_p99(), {}, opts);
    EXPECT_EQ(dse::frontier_report_to_json(a).dump(-1),
              dse::frontier_report_to_json(b).dump(-1));
}

TEST(Explore, OldSpecCacheCapacityKeyIsIgnored)
{
    // A mutation run over three knobs that scores 64 configs, from a spec
    // that still carries the retired "cache_capacity" key at that value.
    // The key is ignored: the memo keeps every scored config, and the
    // report is the same bytes as the one of the spec without the key.
    auto doc = io::Json::parse(dse::sample_explore_spec());
    io::Json section = doc.at("dse");
    section.set("knobs", io::Json::parse(R"([
        "placement.nf_chain",
        {"path": "line_rate_gbps", "values": [10, 20, 30, 40, 50]},
        {"path": "traffic.rate_gbps", "values": [5, 10, 15, 20, 25, 30]}
    ])"));
    section.set("constraints",
                io::Json::parse(
                    R"([{"metric": "throughput_gbps", "lower": 15}])"));
    io::Json des = section.at("des");
    des.set("enabled", io::Json(false));
    section.set("des", std::move(des));
    section.set("strategy", io::Json("mutation"));
    section.set("budget", io::Json(64));
    doc.set("dse", section);
    const auto plain = dse::explore_spec_from_json(doc);
    section.set("cache_capacity", io::Json(64));
    doc.set("dse", std::move(section));
    const auto spec = dse::explore_spec_from_json(doc);

    const auto report = dse::explore(spec.space, spec.objectives,
                                     spec.constraints, spec.options);
    EXPECT_EQ(report.evaluated, 64u);
    EXPECT_EQ(report.cache_hits, 45u);
    EXPECT_EQ(report.cache_misses, 71u);
    const io::Json json = dse::frontier_report_to_json(report);
    EXPECT_EQ(json.at("cache").at("evictions").as_number(), 0.0);
    EXPECT_EQ(json.dump(-1),
              dse::frontier_report_to_json(
                  dse::explore(plain.space, plain.objectives,
                               plain.constraints, plain.options))
                  .dump(-1));
}

TEST(Explore, Nsga2DeterministicAndBudgeted)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps",
              {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0});
    space.add("vertex.arm.parallelism", {1.0, 2.0, 4.0, 8.0});
    space.add("vertex.arm.queue_capacity", {16.0, 64.0, 256.0});

    auto opts = fast_opts();
    opts.strategy = dse::Strategy::kNsga2;
    opts.population = 8;
    opts.generations = 4;
    opts.budget = 512;
    opts.des.enabled = false;

    opts.threads = 1;
    const auto a = dse::explore(space, tput_p99(), {}, opts);
    opts.threads = 8;
    const auto b = dse::explore(space, tput_p99(), {}, opts);
    EXPECT_EQ(dse::frontier_report_to_json(a).dump(-1),
              dse::frontier_report_to_json(b).dump(-1));
    EXPECT_FALSE(a.frontier.empty());
    // Population seeding + 4 generations of offspring, bounded by budget.
    EXPECT_LE(a.requests, 8u + 4u * 8u);
}

TEST(Explore, ConstraintsExcludeFromFrontier)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {5.0, 10.0, 500.0});
    dse::Constraint cap;
    cap.metric = "drop_rate";
    cap.upper = 0.01;
    auto opts = fast_opts();
    opts.des.enabled = false;
    const auto report = dse::explore(space, tput_p99(), {cap}, opts);
    EXPECT_GE(report.infeasible, 1u);
    for (const auto& e : report.frontier)
        EXPECT_NE(e.config[0], 2u); // the 500 Gbps config violates
}

TEST(Explore, InputValidation)
{
    const auto space = placement_space();
    auto opts = fast_opts();
    EXPECT_THROW(dse::explore(space, {}, {}, opts), std::invalid_argument);
    EXPECT_THROW(dse::explore(space,
                              {dse::objective_from_name("cost"),
                               dse::objective_from_name("cost")},
                              {}, opts),
                 std::invalid_argument);
    dse::Constraint bad;
    bad.metric = "bogus_metric";
    EXPECT_THROW(dse::explore(space, tput_p99(), {bad}, opts),
                 std::invalid_argument);
    DesignSpace empty(nf_base());
    EXPECT_THROW(dse::explore(empty, tput_p99(), {}, opts),
                 std::invalid_argument);
}

TEST(Explore, RejectsConstraintWithLowerAboveUpper)
{
    const auto space = placement_space();
    auto opts = fast_opts();
    opts.des.enabled = false;
    const dse::Constraint empty_band{
        .metric = "throughput_gbps", .lower = 15.0, .upper = 5.0};
    try {
        dse::explore(space, tput_p99(), {empty_band}, opts);
        FAIL() << "a constraint no value can meet was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("throughput_gbps"),
                  std::string::npos);
    }
}

TEST(Explore, RejectsConstraintWithoutBounds)
{
    // A misspelled bound ("lowr") in a spec leaves both bounds unset.
    auto doc = io::Json::parse(dse::sample_explore_spec());
    io::Json section = doc.at("dse");
    section.set("constraints",
                io::Json::parse(
                    R"([{"metric": "throughput_gbps", "lowr": 15}])"));
    doc.set("dse", std::move(section));
    auto spec = dse::explore_spec_from_json(doc);
    spec.options.des.enabled = false;
    try {
        dse::explore(spec.space, spec.objectives, spec.constraints,
                     spec.options);
        FAIL() << "a constraint without bounds was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("throughput_gbps"),
                  std::string::npos);
    }
}

TEST(Explore, DesSeedsArePureFunctionsOfTheConfig)
{
    const auto space = placement_space();
    auto opts = fast_opts();
    const auto a = dse::explore(space, tput_p99(), {}, opts);
    const auto b = dse::explore(space, tput_p99(), {}, opts);
    ASSERT_EQ(a.frontier.size(), b.frontier.size());
    for (std::size_t i = 0; i < a.frontier.size(); ++i) {
        EXPECT_EQ(a.frontier[i].des.seed, b.frontier[i].des.seed);
        EXPECT_EQ(a.frontier[i].des.delivered_gbps,
                  b.frontier[i].des.delivered_gbps);
    }
}

TEST(SampleSpec, ParsesAndRoundTrips)
{
    const auto doc = io::Json::parse(dse::sample_explore_spec());
    auto spec = dse::explore_spec_from_json(doc);
    EXPECT_EQ(spec.space.size(), 1u);
    EXPECT_EQ(spec.options.strategy, dse::Strategy::kExhaustive);
    ASSERT_EQ(spec.objectives.size(), 2u);
    EXPECT_EQ(spec.objectives[0].name, "throughput_gbps");

    // Malformed documents are rejected with named errors.
    io::Json bad = doc;
    EXPECT_THROW(dse::explore_spec_from_json(io::Json{}),
                 std::runtime_error);
    io::Json both = doc;
    both.set("scenario", io::Json{});
    EXPECT_THROW(dse::explore_spec_from_json(both), std::runtime_error);
}
