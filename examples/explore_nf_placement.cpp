/**
 * @file
 * The placement study (S4.5, figures 13/14) as a design-space
 * exploration: search all 16 NF-chain placements for the Pareto frontier
 * of throughput vs p99 latency, DES-validate the survivors, and check
 * that the frontier contains LogNIC-opt's MTU placement — the paper's
 * conclusion that at MTU every accelerable NF pays for its offload.
 *
 * Exits nonzero if the frontier misses that placement, so CI can run
 * this as a conclusion-regression check.
 */
#include <cstdio>
#include <cstdlib>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/io/json.hpp"

using namespace lognic;

int
main()
{
    // The shipped sample spec IS the placement study: one
    // placement.nf_chain knob, exhaustive strategy, throughput vs p99.
    const io::Json doc = io::Json::parse(dse::sample_explore_spec());
    dse::ExploreSpec spec = dse::explore_spec_from_json(doc);
    const dse::FrontierReport report = dse::explore(
        spec.space, spec.objectives, spec.constraints, spec.options);
    std::fputs(dse::render(report).c_str(), stdout);

    // LogNIC-opt's pick under the same traffic (50 Gbps at MTU), pinned
    // by tests/dse: the accelerator-only placement, level 15 of
    // placement.nf_chain.
    const std::size_t opt_index = 15;
    const auto opt = apps::all_placements().at(opt_index);
    std::printf("\nLogNIC-opt placement: %s (index %zu)\n",
                opt.to_string().c_str(), opt_index);

    for (const dse::FrontierEntry& e : report.frontier) {
        if (e.config.size() == 1 && e.config[0] == opt_index) {
            std::printf("frontier contains the accelerator-only placement "
                        "— the generic search recovers the paper's "
                        "fig13/14 MTU conclusion\n");
            return 0;
        }
    }
    std::fprintf(stderr, "FAIL: the Pareto frontier does not contain the "
                         "accelerator-only placement (index %zu)\n",
                 opt_index);
    return 1;
}
