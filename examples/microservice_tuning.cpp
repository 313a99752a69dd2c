/**
 * @file
 * Case-study-#3 walkthrough: tune the per-stage core allocation of an E3
 * microservice chain with the LogNIC optimizer.
 *
 * Shows the three allocation schemes of the paper and the optimizer's
 * reasoning: per-stage costs differ, so the right core split is neither
 * "all cores run everything" (round-robin) nor "same share everywhere"
 * (equal partition).
 */
#include <cstdio>

#include "lognic/apps/microservices.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

int
main()
{
    const auto workload = apps::E3Workload::kNfvDin; // intrusion detection
    std::printf("workload %s stages:\n", apps::to_string(workload));
    for (const auto& stage : apps::e3_stages(workload)) {
        std::printf("  %-10s %.1f us + %.1f payload passes\n",
                    stage.name.c_str(), stage.fixed.micros(),
                    stage.stream_passes);
    }

    const auto traffic = core::TrafficProfile::fixed(
        apps::e3_request_size(), Bandwidth::from_gbps(4.0));

    const auto opt_alloc = dse::lognic_opt_alloc(workload, traffic);
    std::printf("\nLogNIC-opt core allocation over 16 cnMIPS cores:");
    for (auto c : opt_alloc)
        std::printf(" %u", c);
    std::printf("\n(the regex stage is ~3x the cost of parse/tx, so it "
                "gets the lion's share)\n\n");

    auto report = [&](const char* name,
                      const apps::MicroserviceScenario& sc) {
        const auto rep = core::Model(sc.hw).estimate(sc.graph, traffic);
        sim::SimOptions opts;
        opts.duration = 0.03;
        const auto res = sim::simulate(sc.hw, sc.graph, traffic, opts);
        std::printf("%-16s capacity %5.2f MRPS | simulated %5.2f MRPS, "
                    "%6.2f us\n",
                    name,
                    rep.throughput.capacity.bits_per_sec()
                        / apps::e3_request_size().bits() / 1e6,
                    res.delivered_ops.mops(), res.mean_latency.micros());
    };

    report("round-robin", apps::make_e3_run_to_completion(workload));
    report("equal-partition",
           apps::make_e3_pipeline(workload,
                                  apps::equal_partition_alloc(workload)));
    report("lognic-opt", apps::make_e3_pipeline(workload, opt_alloc));
    return 0;
}
