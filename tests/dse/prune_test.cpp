/**
 * @file
 * Feasibility pruning: domain narrowing, the reject() soundness contract
 * (every pruned config is one the oracle would mark infeasible, with the
 * same constraint-violation value), byte-identical frontier reports with
 * pruning on/off at any thread count, the <= 50% solve budget on a
 * binding constraint, and batched scores equal to evaluate_config's.
 */
#include "lognic/dse/prune.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/io/serialize.hpp"
#include "../test_helpers.hpp"

using namespace lognic;
using dse::Config;
using dse::Constraint;
using dse::DesignSpace;
using dse::ExploreOptions;
using dse::PruneMode;
using dse::Pruner;

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

/// 16 placements x 4 line rates x 5 offered rates = 320 configs; the
/// ARM-only chain tops out near 10 Gb/s, full offload near 21.7, so a
/// 15 Gb/s floor structurally kills well over half the grid.
DesignSpace
constrained_space()
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("line_rate_gbps", {10.0, 25.0, 50.0, 100.0});
    space.add("traffic.rate_gbps", {5.0, 10.0, 25.0, 50.0, 100.0});
    return space;
}

Constraint
tput_floor(double lower)
{
    Constraint con;
    con.metric = "throughput_gbps";
    con.lower = lower;
    return con;
}

std::vector<dse::ObjectiveSpec>
tput_p99()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

/// Every config of the space, odometer order (last knob fastest), the
/// same enumeration the exhaustive strategy uses.
std::vector<Config>
all_configs(const DesignSpace& space)
{
    std::vector<Config> out;
    Config c(space.size(), 0);
    while (true) {
        out.push_back(c);
        std::size_t k = space.size();
        while (k > 0) {
            --k;
            if (++c[k] < space.knob(k).values.size())
                break;
            c[k] = 0;
            if (k == 0)
                return out;
        }
    }
}

} // namespace

TEST(PruneMode, NamesRoundTrip)
{
    for (PruneMode m :
         {PruneMode::kOff, PruneMode::kOn, PruneMode::kExplain})
        EXPECT_EQ(dse::prune_mode_from_name(dse::prune_mode_name(m)), m);
    EXPECT_THROW(dse::prune_mode_from_name("bogus"), std::invalid_argument);
}

TEST(Pruner, NarrowsOfferedRateDomainAgainstFloor)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("traffic.rate_gbps", {5.0, 10.0, 50.0});

    Pruner pruner(space, {tput_floor(15.0)});
    // Offered 5 and 10 Gb/s can never reach a 15 Gb/s throughput floor.
    EXPECT_TRUE(pruner.level_removed(1, 0));
    EXPECT_TRUE(pruner.level_removed(1, 1));
    EXPECT_FALSE(pruner.level_removed(1, 2));
    EXPECT_GE(pruner.stats().levels_removed, 2u);
    EXPECT_GE(pruner.stats().fixpoint_rounds, 1u);

    const std::string narration = pruner.explain();
    EXPECT_NE(narration.find("constraint throughput_gbps"),
              std::string::npos);
    EXPECT_NE(narration.find("level(s) survive"), std::string::npos);
    EXPECT_NE(narration.find("removed"), std::string::npos);
}

TEST(Pruner, CostRejectionIsExact)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {10.0, 20.0, 40.0}, /*cost_weight=*/1.5);

    Constraint budget;
    budget.metric = "cost";
    budget.upper = 40.0;
    Pruner pruner(space, {budget});

    // 40 * 1.5 = 60 > 40: provably over budget, with the oracle's own
    // cost double in the reason.
    const auto r = pruner.reject({2});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->metric, "cost");
    EXPECT_TRUE(r->exact);
    EXPECT_EQ(r->value, space.cost({2}));
    EXPECT_EQ(r->why, "pruned: constraint violated: cost = "
                          + io::format_double(space.cost({2})));
    EXPECT_FALSE(pruner.reject({0}).has_value());
    EXPECT_TRUE(pruner.level_removed(0, 2));
}

TEST(Pruner, LatencyConstraintsAreNeverPruned)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {10.0, 50.0});
    Constraint lat;
    lat.metric = "p99_latency_us";
    lat.upper = 0.0; // unsatisfiable — but it needs a solve to prove
    Pruner pruner(space, {lat});
    EXPECT_FALSE(pruner.reject({0}).has_value());
    EXPECT_FALSE(pruner.reject({1}).has_value());
    EXPECT_EQ(pruner.stats().levels_removed, 0u);
}

TEST(Pruner, RejectionsAgreeWithTheOracleEverywhere)
{
    // The soundness sweep: over every config of the constrained space,
    // a reject() must coincide with an oracle-infeasible evaluation, and
    // an exact rejection must carry the oracle's own violation message.
    const DesignSpace space = constrained_space();
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints{tput_floor(15.0)};
    Pruner pruner(space, constraints);

    std::size_t rejected = 0;
    for (const Config& c : all_configs(space)) {
        const auto r = pruner.reject(c);
        if (!r)
            continue;
        ++rejected;
        const auto eval =
            dse::evaluate_config(space, c, objectives, constraints);
        ASSERT_FALSE(eval.feasible);
        EXPECT_EQ(r->metric, "throughput_gbps");
        if (r->exact) {
            EXPECT_EQ(r->why, "pruned: " + eval.why);
        }
    }
    // The floor is binding: over half the 320-config grid is provably
    // infeasible from the term tables alone.
    EXPECT_GT(rejected, all_configs(space).size() / 2);
}

TEST(Pruner, PrunedReportIsByteIdenticalAndHalvesSolves)
{
    const DesignSpace space = constrained_space();
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints{tput_floor(15.0)};

    const auto run = [&](PruneMode mode, std::size_t threads) {
        ExploreOptions opts;
        opts.des.enabled = false;
        opts.exhaustive_limit = 1024;
        opts.prune = mode;
        opts.threads = threads;
        return dse::explore(space, objectives, constraints, opts);
    };

    const auto off = run(PruneMode::kOff, 1);
    const std::string want = dse::frontier_report_to_json(off).dump(-1);
    EXPECT_EQ(off.solves, 320u);
    EXPECT_EQ(off.pruned, 0u);
    ASSERT_FALSE(off.frontier.empty());

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto on = run(PruneMode::kOn, threads);
        EXPECT_EQ(dse::frontier_report_to_json(on).dump(-1), want)
            << "threads " << threads;
        EXPECT_LE(on.solves, off.solves / 2) << "threads " << threads;
        EXPECT_EQ(on.solves + on.pruned, off.solves);
        EXPECT_GT(on.pruned_levels, 0u);
    }

    // kExplain behaves like kOn and narrates through prune_log.
    ExploreOptions opts;
    opts.des.enabled = false;
    opts.exhaustive_limit = 1024;
    opts.prune = PruneMode::kExplain;
    std::string narration;
    opts.prune_log = [&](const std::string& m) { narration = m; };
    const auto explain = dse::explore(space, objectives, constraints, opts);
    EXPECT_EQ(dse::frontier_report_to_json(explain).dump(-1), want);
    EXPECT_NE(narration.find("constraint throughput_gbps"),
              std::string::npos);
}

TEST(Pruner, OpaqueSpacesFallBackToCostOnlyPruning)
{
    // An unrecognized custom knob makes every capacity bound unusable;
    // throughput constraints must then never prune (soundness over
    // power), while exact cost pruning still works.
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {5.0, 50.0}, /*cost_weight=*/1.0);
    dse::Knob custom;
    custom.name = "custom.arbitrary";
    custom.values = {0.0, 1.0};
    custom.cost_weight = 100.0;
    custom.apply = [](io::Scenario&, double) {};
    space.add_custom(std::move(custom));

    Constraint budget;
    budget.metric = "cost";
    budget.upper = 60.0;
    Pruner pruner(space, {tput_floor(15.0), budget});

    // Offered 5 < 15 would be prunable with recognized paths — but the
    // custom knob could touch anything, so no throughput rejection.
    EXPECT_FALSE(pruner.reject({0, 0}).has_value());
    // Cost is declared per knob, not modeled: still exactly prunable.
    const auto r = pruner.reject({1, 1});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->metric, "cost");
}

TEST(Pruner, CustomKnobNamedLikeABuiltInPathIsNotReadByItsName)
{
    // A custom knob named interface_gbps whose apply sets the cores
    // vertex's engine count: read by its name, it would leave the cores
    // term constant at one engine's rate and reject every level. Only
    // its apply knows what it touches, so every rejection must still
    // agree with the oracle.
    const auto hw = test::small_nic(Bandwidth::from_gbps(100.0));
    DesignSpace space(io::Scenario{hw, test::single_stage_graph(hw),
                                   test::mtu_traffic(60.0)});
    dse::Knob engines;
    engines.name = "interface_gbps";
    engines.values = {1.0, 2.0, 4.0, 8.0};
    engines.apply = [](io::Scenario& sc, double v) {
        sc.graph.vertex(*sc.graph.find_vertex("cores")).params.parallelism =
            static_cast<std::uint32_t>(v);
    };
    space.add_custom(std::move(engines));

    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints{tput_floor(10.0)};
    Pruner pruner(space, constraints);
    std::size_t feasible = 0;
    for (const Config& c : all_configs(space)) {
        const auto eval =
            dse::evaluate_config(space, c, objectives, constraints);
        feasible += eval.feasible ? 1 : 0;
        const auto r = pruner.reject(c);
        if (!r)
            continue;
        EXPECT_FALSE(eval.feasible) << "level " << c[0] << ": " << r->why;
        if (r->exact) {
            EXPECT_EQ(r->why, "pruned: " + eval.why) << "level " << c[0];
        }
    }
    // One engine carries ~8.7 Gb/s, under the floor; two, four and eight
    // carry ~17.5, ~34.9 and the offered 60.
    EXPECT_EQ(feasible, 3u);
}

TEST(BatchEvaluator, ScoresEqualEvaluateConfigAtAnyThreadCount)
{
    // Every batched score is the oracle's own: bit-identical to
    // evaluate_config at every config, whatever the thread count.
    const DesignSpace space = constrained_space();
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints{tput_floor(15.0)};
    const std::vector<Config> batch = all_configs(space);

    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        ExploreOptions opts;
        opts.des.enabled = false;
        opts.threads = threads;
        dse::BatchEvaluator ev(space, objectives, constraints, opts);
        const auto scored = ev.scored_batch(batch);
        ASSERT_EQ(scored.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto fresh = dse::evaluate_config(space, batch[i],
                                                    objectives, constraints);
            ASSERT_EQ(scored[i].objectives.size(),
                      fresh.objectives.size());
            for (std::size_t o = 0; o < fresh.objectives.size(); ++o)
                EXPECT_EQ(scored[i].objectives[o], fresh.objectives[o])
                    << "config " << i << " objective " << o << " threads "
                    << threads;
            EXPECT_EQ(scored[i].feasible, fresh.feasible);
        }
        EXPECT_EQ(ev.solves(), batch.size());
    }
}
