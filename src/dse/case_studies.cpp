/**
 * @file
 * The LogNIC-opt case studies as exhaustive, model-only explorations.
 * See case_studies.hpp for each study's knobs, objectives and limits.
 */
#include "lognic/dse/case_studies.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "lognic/apps/panic_models.hpp"

namespace lognic::dse {
namespace {

/// Fig. 18's saturation rule: within 0.1% of the best capacity.
constexpr double kSaturationTolerance = 1e-3;

/// An exhaustive (the default strategy), DES-off spec over one base
/// scenario; the caller adds knobs and constraints.
ExploreSpec
model_only(core::HardwareModel hw, core::ExecutionGraph graph,
           const core::TrafficProfile& traffic,
           const std::vector<std::string>& objectives)
{
    ExploreSpec spec{DesignSpace(
        io::Scenario{std::move(hw), std::move(graph), traffic})};
    for (const std::string& name : objectives)
        spec.objectives.push_back(objective_from_name(name));
    spec.options.des.enabled = false;
    return spec;
}

/// Run @p spec and return the level values of the suggested config.
std::vector<double>
pick(const ExploreSpec& spec, double tolerance = 0.0)
{
    const FrontierEntry best = suggest(
        explore(spec.space, spec.objectives, spec.constraints, spec.options),
        tolerance);
    std::vector<double> levels;
    for (std::size_t k = 0; k < spec.space.size(); ++k)
        levels.push_back(spec.space.knob(k).values[best.config[k]]);
    return levels;
}

} // namespace

FrontierEntry
suggest(const FrontierReport& report, double tolerance)
{
    if (report.frontier.empty())
        throw std::invalid_argument(
            "dse::suggest: empty frontier (no feasible config)");
    if (!(tolerance >= 0.0))
        throw std::invalid_argument("dse::suggest: tolerance must be >= 0");
    const auto better = [&](std::size_t o, const FrontierEntry& a,
                            const FrontierEntry& b) {
        return report.objectives[o].sense == Sense::kMaximize
                   ? a.objectives[o] > b.objectives[o]
                   : a.objectives[o] < b.objectives[o];
    };
    const FrontierEntry* first = &report.frontier.front();
    for (const FrontierEntry& e : report.frontier)
        if (better(0, e, *first))
            first = &e;
    const double best = first->objectives[0];
    const double slack = tolerance * std::fabs(best);
    // Among first-objective ties: the better second objective, then the
    // lower level indices.
    const auto preferred = [&](const FrontierEntry& a,
                               const FrontierEntry& b) {
        if (a.objectives.size() > 1) {
            if (better(1, a, b))
                return true;
            if (better(1, b, a))
                return false;
        }
        return a.config < b.config;
    };
    const FrontierEntry* chosen = nullptr;
    for (const FrontierEntry& e : report.frontier)
        if (std::fabs(e.objectives[0] - best) <= slack
            && (chosen == nullptr || preferred(e, *chosen)))
            chosen = &e;
    return *chosen;
}

ExploreSpec
placement_study(const core::TrafficProfile& traffic)
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    ExploreSpec spec = model_only(std::move(built.hw), std::move(built.graph),
                                  traffic,
                                  {"capacity_gbps", "mean_latency_us"});
    spec.space.add("placement.nf_chain", {});
    return spec;
}

ExploreSpec
alloc_study(apps::E3Workload workload, const core::TrafficProfile& traffic,
            std::uint32_t total)
{
    const auto stages = apps::e3_stages(workload);
    const auto k = static_cast<std::uint32_t>(stages.size());
    // The equal partition validates the budget with make_e3_pipeline's own
    // errors; every knob below overrides its counts.
    auto built = apps::make_e3_pipeline(
        workload, apps::equal_partition_alloc(workload, total));
    ExploreSpec spec = model_only(std::move(built.hw), std::move(built.graph),
                                  traffic,
                                  {"capacity_gbps", "mean_latency_us"});
    std::vector<double> cores;
    for (std::uint32_t c = 1; c + (k - 1) <= total; ++c)
        cores.push_back(c);
    for (const apps::E3Stage& stage : stages)
        spec.space.add("vertex." + stage.name + ".parallelism", cores, 1.0);
    spec.constraints.push_back(Constraint{.metric = "cost",
                                          .lower = static_cast<double>(total),
                                          .upper = static_cast<double>(total)});
    return spec;
}

ExploreSpec
split_study(const core::TrafficProfile& traffic)
{
    // Any valid split will do as the base: the knob rebuilds Model 2 at
    // every X.
    auto built = apps::make_panic_parallel_chain(40.0);
    ExploreSpec spec = model_only(std::move(built.hw), std::move(built.graph),
                                  traffic, {"mean_latency_us"});
    Knob x;
    x.name = "split.a2_percent";
    for (int percent = 5; percent <= 75; ++percent)
        x.values.push_back(percent);
    x.rebuilds_scenario = true;
    x.apply = [](io::Scenario& sc, double percent) {
        auto rebuilt = apps::make_panic_parallel_chain(percent);
        sc.hw = std::move(rebuilt.hw);
        sc.graph = std::move(rebuilt.graph);
    };
    spec.space.add_custom(std::move(x));
    spec.constraints.push_back(
        Constraint{.metric = "drop_rate", .upper = 0.01});
    return spec;
}

ExploreSpec
parallelism_study(double ip3_fraction, const core::TrafficProfile& traffic,
                  std::uint32_t max_parallelism)
{
    auto built = apps::make_panic_hybrid(ip3_fraction, max_parallelism);
    ExploreSpec spec = model_only(std::move(built.hw), std::move(built.graph),
                                  traffic, {"capacity_gbps", "cost"});
    std::vector<double> degrees;
    for (std::uint32_t d = 1; d <= max_parallelism; ++d)
        degrees.push_back(d);
    spec.space.add("vertex.ip4.parallelism", std::move(degrees), 1.0);
    return spec;
}

apps::NfPlacement
lognic_opt_placement(const core::TrafficProfile& traffic)
{
    const double level = pick(placement_study(traffic))[0];
    return apps::all_placements().at(static_cast<std::size_t>(level));
}

std::vector<std::uint32_t>
lognic_opt_alloc(apps::E3Workload workload,
                 const core::TrafficProfile& traffic, std::uint32_t total)
{
    std::vector<std::uint32_t> alloc;
    for (double cores : pick(alloc_study(workload, traffic, total)))
        alloc.push_back(static_cast<std::uint32_t>(cores));
    return alloc;
}

double
lognic_opt_split(const core::TrafficProfile& traffic)
{
    return pick(split_study(traffic))[0];
}

std::uint32_t
lognic_opt_parallelism(double ip3_fraction,
                       const core::TrafficProfile& traffic,
                       std::uint32_t max_parallelism)
{
    const double degree =
        pick(parallelism_study(ip3_fraction, traffic, max_parallelism),
             kSaturationTolerance)[0];
    return static_cast<std::uint32_t>(degree);
}

} // namespace lognic::dse
