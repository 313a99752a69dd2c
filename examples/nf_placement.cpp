/**
 * @file
 * Case-study-#4 explorer: where should each network function of the chain
 * FW -> LB -> DPI -> NAT -> PE run on a BlueField-2 — ARM cores or the
 * matching accelerator?
 *
 * Enumerates all 16 placements, prints the modelled capacity for small and
 * large packets, and shows which placement LogNIC-opt (an exhaustive dse
 * search) picks per packet size (and why naive heuristics lose).
 */
#include <cstdio>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/traffic/profiles.hpp"

using namespace lognic;

namespace {

double
capacity_gbps(const apps::NfPlacement& p, Bytes size)
{
    const auto sc = apps::make_nf_chain(p);
    const auto traffic =
        core::TrafficProfile::fixed(size, Bandwidth::from_gbps(100.0));
    return core::Model(sc.hw)
        .throughput(sc.graph, traffic)
        .capacity.gbps();
}

} // namespace

int
main()
{
    std::printf("%-34s %10s %10s\n", "placement", "64B Gbps", "1500B Gbps");
    for (const auto& p : apps::all_placements()) {
        std::printf("%-34s %10.2f %10.2f\n", p.to_string().c_str(),
                    capacity_gbps(p, Bytes{64.0}),
                    capacity_gbps(p, Bytes{1500.0}));
    }

    std::printf("\nLogNIC-opt placement per packet size:\n");
    for (Bytes size : traffic::standard_packet_sizes()) {
        const auto traffic =
            core::TrafficProfile::fixed(size, Bandwidth::from_gbps(50.0));
        const auto opt = dse::lognic_opt_placement(traffic);
        const auto sc = apps::make_nf_chain(opt);
        const auto rep = core::Model(sc.hw).estimate(sc.graph, traffic);
        std::printf("  %5.0fB -> %-34s %.2f Gbps, %.2f us "
                    "(bottleneck: %s)\n",
                    size.bytes(), opt.to_string().c_str(),
                    rep.throughput.capacity.gbps(),
                    rep.latency.mean.micros(),
                    rep.throughput.bottleneck().name.c_str());
    }

    std::printf("\nTakeaway: up to 256B the offload preparation overhead "
                "outweighs what FW, LB and NAT cost on ARM, so only PE moves "
                "to its accelerator; from 512B the ARM streaming cost "
                "dominates and all four accelerable NFs, the hash-backed LB "
                "included, move to accelerators.\n");
    return 0;
}
