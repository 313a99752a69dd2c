// The LogNIC-opt case studies on dse::explore: suggest()'s tie rules,
// every suggestion the figures, examples and CLI use (pinned exactly),
// and prune/thread identity on the case-study spaces.
#include "lognic/dse/case_studies.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lognic/core/model.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/traffic/profiles.hpp"

using namespace lognic;

namespace {

core::TrafficProfile
fixed(double bytes, double gbps)
{
    return core::TrafficProfile::fixed(Bytes{bytes},
                                       Bandwidth::from_gbps(gbps));
}

core::TrafficProfile
e3_traffic()
{
    return core::TrafficProfile::fixed(apps::e3_request_size(),
                                       Bandwidth::from_gbps(5.0));
}

double
capacity(const core::HardwareModel& hw, const core::ExecutionGraph& graph,
         const core::TrafficProfile& traffic)
{
    return core::Model(hw).throughput(graph, traffic).capacity.bits_per_sec();
}

dse::FrontierReport
report_of(std::vector<std::string> objectives,
          std::vector<std::pair<dse::Config, std::vector<double>>> entries)
{
    dse::FrontierReport report;
    for (const std::string& name : objectives)
        report.objectives.push_back(dse::objective_from_name(name));
    for (auto& [config, values] : entries) {
        dse::FrontierEntry e;
        e.config = std::move(config);
        e.objectives = std::move(values);
        report.frontier.push_back(std::move(e));
    }
    return report;
}

std::string
explore_json(const dse::ExploreSpec& spec, dse::PruneMode prune,
             std::size_t threads)
{
    dse::ExploreOptions opts = spec.options;
    opts.prune = prune;
    opts.threads = threads;
    return dse::frontier_report_to_json(
               dse::explore(spec.space, spec.objectives, spec.constraints,
                            opts))
        .dump(-1);
}

} // namespace

// --- suggest() ---------------------------------------------------------------

TEST(Suggest, BestFirstObjectiveThenSecondThenLowestLevels)
{
    auto report = report_of({"capacity_gbps", "cost"},
                            {{{3}, {12.0, 9.0}},
                             {{2}, {10.0, 5.0}},
                             {{1, 1}, {10.0, 3.0}},
                             {{1, 0}, {10.0, 3.0}}});
    EXPECT_EQ(dse::suggest(report).config, (dse::Config{3}));

    // Without the best capacity, three entries tie on it; two of those
    // tie on cost too, and the lower level indices break that tie.
    report.frontier.erase(report.frontier.begin());
    EXPECT_EQ(dse::suggest(report).config, (dse::Config{1, 0}));
}

TEST(Suggest, ToleranceWidensTheFirstObjectiveTie)
{
    const auto saturating = report_of({"capacity_gbps", "cost"},
                                      {{{7}, {100.0, 8.0}},
                                       {{3}, {99.95, 4.0}},
                                       {{2}, {99.0, 3.0}}});
    EXPECT_EQ(dse::suggest(saturating).config, (dse::Config{7}));
    EXPECT_EQ(dse::suggest(saturating, 1e-3).config, (dse::Config{3}));
    EXPECT_EQ(dse::suggest(saturating, 0.02).config, (dse::Config{2}));

    // Minimized objectives tie within the same relative band.
    const auto latency = report_of({"mean_latency_us", "cost"},
                                   {{{0}, {2.0, 5.0}}, {{1}, {2.001, 1.0}}});
    EXPECT_EQ(dse::suggest(latency).config, (dse::Config{0}));
    EXPECT_EQ(dse::suggest(latency, 1e-3).config, (dse::Config{1}));

    EXPECT_THROW(dse::suggest(latency, -1e-3), std::invalid_argument);
}

TEST(Suggest, EmptyFrontierThrows)
{
    EXPECT_THROW(dse::suggest(report_of({"cost"}, {})),
                 std::invalid_argument);
}

// --- Pinned suggestions ------------------------------------------------------

TEST(CaseStudies, PlacementsAt50Gbps)
{
    // PE alone is offloaded up to 256 B; from 512 B every accelerable NF
    // pays for its offload.
    apps::NfPlacement pe_only;
    pe_only.pe = true;
    for (Bytes size : traffic::standard_packet_sizes()) {
        const auto expected = size.bytes() < 512.0
                                  ? pe_only
                                  : apps::accelerator_only_placement();
        EXPECT_EQ(dse::lognic_opt_placement(fixed(size.bytes(), 50.0))
                      .to_string(),
                  expected.to_string())
            << size.bytes();
    }
}

TEST(CaseStudies, E3AllocationsAt5Gbps)
{
    using apps::E3Workload;
    const std::pair<E3Workload, std::vector<std::uint32_t>> pinned[] = {
        {E3Workload::kNfvFin, {3, 6, 4, 3}},
        {E3Workload::kNfvDin, {3, 7, 4, 2}},
        {E3Workload::kRtaSf, {3, 5, 6, 2}},
        {E3Workload::kRtaShm, {4, 7, 5}},
        {E3Workload::kIotDh, {3, 5, 6, 2}},
    };
    for (const auto& [workload, alloc] : pinned) {
        const auto spec = dse::alloc_study(workload, e3_traffic());
        const auto report = dse::explore(spec.space, spec.objectives,
                                         spec.constraints, spec.options);
        const dse::Config pick = dse::suggest(report).config;
        std::vector<std::uint32_t> cores;
        for (std::size_t k = 0; k < pick.size(); ++k)
            cores.push_back(static_cast<std::uint32_t>(
                spec.space.knob(k).values[pick[k]]));
        EXPECT_EQ(cores, alloc) << apps::to_string(workload);
        // The pruner settles every core count that does not sum to 16, so
        // the model solves exactly the compositions: C(15, k - 1).
        EXPECT_EQ(report.solves, alloc.size() == 4 ? 455u : 105u);
        EXPECT_EQ(report.pruned, report.evaluated - report.solves);
    }
}

TEST(CaseStudies, SmallerBudgetsAndBadBudgets)
{
    const auto alloc = dse::lognic_opt_alloc(apps::E3Workload::kRtaShm,
                                             e3_traffic(), 6);
    ASSERT_EQ(alloc.size(), 3u);
    EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 6u);
    EXPECT_THROW(dse::alloc_study(apps::E3Workload::kNfvFin, e3_traffic(), 3),
                 std::invalid_argument);
    EXPECT_THROW(dse::alloc_study(apps::E3Workload::kNfvFin, e3_traffic(), 17),
                 std::invalid_argument);
}

TEST(CaseStudies, PruneAndThreadsLeaveTheReportUnchanged)
{
    // The RTA-SHM allocation space (14^3 = 2,744 configs, 105 solves with
    // pruning on) and the Fig. 18 space.
    const dse::ExploreSpec specs[] = {
        dse::alloc_study(apps::E3Workload::kRtaShm, e3_traffic()),
        dse::parallelism_study(0.5, fixed(1500.0, 100.0)),
    };
    for (const dse::ExploreSpec& spec : specs) {
        const std::string off = explore_json(spec, dse::PruneMode::kOff, 1);
        EXPECT_EQ(explore_json(spec, dse::PruneMode::kOn, 1), off);
        EXPECT_EQ(explore_json(spec, dse::PruneMode::kOn, 4), off);
    }
    EXPECT_EQ(specs[0].space.combinations(), 2744u);
}

// --- Moved from the apps suite -----------------------------------------------

TEST(Microservices, OptBeatsRoundRobinAndEqualPartition)
{
    // The case-study headline: LogNIC-opt outperforms both heuristics on
    // throughput for every workload.
    for (auto w : apps::e3_workloads()) {
        const auto traffic = e3_traffic();
        const auto opt =
            apps::make_e3_pipeline(w, dse::lognic_opt_alloc(w, traffic));
        const auto rr = apps::make_e3_run_to_completion(w);
        const auto eq =
            apps::make_e3_pipeline(w, apps::equal_partition_alloc(w));
        const double opt_cap = capacity(opt.hw, opt.graph, traffic);
        EXPECT_GT(opt_cap, capacity(rr.hw, rr.graph, traffic) * 1.05)
            << apps::to_string(w);
        EXPECT_GT(opt_cap, capacity(eq.hw, eq.graph, traffic) * 1.05)
            << apps::to_string(w);
    }
}

TEST(Microservices, OptAllocRespectsBudget)
{
    const auto alloc =
        dse::lognic_opt_alloc(apps::E3Workload::kNfvDin, e3_traffic(), 16);
    std::uint32_t total = 0;
    for (auto c : alloc) {
        EXPECT_GE(c, 1u);
        total += c;
    }
    EXPECT_EQ(total, 16u);
}

TEST(NfChain, OptDominatesBothBaselines)
{
    for (double size : {64.0, 256.0, 512.0, 1500.0}) {
        const auto t = fixed(size, 50.0);
        auto cap = [&](const apps::NfPlacement& p) {
            const auto sc = apps::make_nf_chain(p);
            return capacity(sc.hw, sc.graph, t);
        };
        const double opt = cap(dse::lognic_opt_placement(t));
        EXPECT_GE(opt * 1.0001, cap(apps::arm_only_placement())) << size;
        EXPECT_GE(opt * 1.0001, cap(apps::accelerator_only_placement()))
            << size;
    }
}

TEST(PanicModels, Figure16OptimalSplitIsProportional)
{
    // A2:A3 capacity is 7:3, so the latency-optimal split of the 80% is
    // X = 56 ("steers traffic in proportion to computing capability"):
    // under the figure's profiles TP1-TP3 and under lighter MTU load.
    for (const auto& t : {fixed(64.0, 18.0), fixed(512.0, 55.0),
                          fixed(1500.0, 75.0), fixed(512.0, 70.0),
                          fixed(1500.0, 70.0)})
        EXPECT_EQ(dse::lognic_opt_split(t), 56.0)
            << t.classes()[0].size.bytes();
}

TEST(PanicModels, Figure18OptimalParallelism)
{
    const auto tp = fixed(1500.0, 100.0);
    EXPECT_EQ(dse::lognic_opt_parallelism(0.5, tp), 6u);
    EXPECT_EQ(dse::lognic_opt_parallelism(0.8, tp), 4u);
}
