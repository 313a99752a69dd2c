/**
 * @file
 * Bottleneck hunting end to end: start from a slow offloaded program, let
 * the sensitivity analysis rank the knobs, then search the top knob under
 * explicit performance goals (Figure 4b's satisficing mode, as dse
 * constraints) and verify the fix in the simulator.
 */
#include <cstdio>

#include "lognic/core/model.hpp"
#include "lognic/core/sensitivity.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

namespace {

core::HardwareModel
make_nic()
{
    core::HardwareModel hw("hunt-nic", Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(80.0),
                           Bandwidth::from_gbps(100.0));
    core::IpSpec parse;
    parse.name = "parser";
    parse.roofline = core::ExtendedRoofline(
        core::ServiceModel{Seconds::from_micros(0.2),
                           Bandwidth::from_gigabytes_per_sec(8.0)},
        {});
    parse.max_engines = 8;
    hw.add_ip(parse);

    core::IpSpec work;
    work.name = "workers";
    work.roofline = core::ExtendedRoofline(
        core::ServiceModel{Seconds::from_micros(1.2),
                           Bandwidth::from_gigabytes_per_sec(2.0)},
        {});
    work.max_engines = 12;
    hw.add_ip(work);
    return hw;
}

core::ExecutionGraph
make_graph(const core::HardwareModel& hw, std::uint32_t workers)
{
    core::ExecutionGraph g("pipeline");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    core::VertexParams pp;
    pp.parallelism = 4;
    const auto v1 = g.add_ip_vertex("parser", *hw.find_ip("parser"), pp);
    core::VertexParams wp;
    wp.parallelism = workers;
    const auto v2 = g.add_ip_vertex("workers", *hw.find_ip("workers"), wp);
    g.add_edge(in, v1);
    g.add_edge(v1, v2, core::EdgeParams{1.0, 0.0, 1.0, {}});
    g.add_edge(v2, out);
    return g;
}

} // namespace

int
main()
{
    const auto hw = make_nic();
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{1024.0}, Bandwidth::from_gbps(18.0));
    const auto initial = make_graph(hw, 3); // under-provisioned workers

    // Step 1: where does the time go?
    const core::Model model(hw);
    const auto before = model.estimate(initial, traffic);
    std::printf("initial: capacity %.2f Gbps (bottleneck %s), latency "
                "%.2f us\n\n",
                before.throughput.capacity.gbps(),
                before.throughput.bottleneck().name.c_str(),
                before.latency.mean.micros());

    // Step 2: sensitivity ranking.
    std::printf("%-34s %10s %10s\n", "knob", "d(cap)", "d(lat)");
    for (const auto& s : core::analyze_sensitivity(initial, hw, traffic)) {
        std::printf("%-34s %10.3f %10.3f\n", s.parameter.c_str(),
                    s.capacity_elasticity, s.latency_elasticity);
    }

    // Step 3: the top knob is the workers' parallelism. Search every
    // worker count for those meeting throughput >= 20 Gbps and mean
    // latency <= 5 us, and take the lowest latency among them.
    dse::DesignSpace space(io::Scenario{hw, initial, traffic});
    space.add("vertex.workers.parallelism",
              {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    dse::ExploreOptions search;
    search.des.enabled = false;
    const auto report = dse::explore(
        space, {dse::objective_from_name("mean_latency_us")},
        {{.metric = "capacity_gbps", .lower = 20.0},
         {.metric = "mean_latency_us", .upper = 5.0}},
        search);
    if (report.frontier.empty()) {
        std::printf("\nno configuration met the goals\n");
        return 1;
    }
    const auto workers = static_cast<std::uint32_t>(
        space.knob(0).values[dse::suggest(report).config[0]]);
    const auto fixed = make_graph(hw, workers);
    const auto after = model.estimate(fixed, traffic);
    std::printf("\nsatisficed with %u workers: capacity %.2f Gbps, "
                "latency %.2f us\n",
                workers, after.throughput.capacity.gbps(),
                after.latency.mean.micros());

    // Step 4: confirm in the simulator.
    sim::SimOptions opts;
    opts.duration = 0.05;
    const auto measured = sim::simulate(hw, fixed, traffic, opts);
    std::printf("simulator confirms: %.2f Gbps delivered, %.2f us mean "
                "(p99 %.2f us)\n",
                measured.delivered.gbps(), measured.mean_latency.micros(),
                measured.p99_latency.micros());
    return 0;
}
