/**
 * @file
 * Figures 13 & 14: NF-chain (FW->LB->DPI->NAT->PE) throughput and average
 * latency vs. packet size on the BlueField-2 under three placements:
 * ARM-only, Accelerator-only (offload-first), and LogNIC-opt (the
 * placement dse::lognic_opt_placement picks per packet size).
 *
 * Paper result: LogNIC-opt saves 37.9%/27.3% latency and gains 81.9%/21.7%
 * throughput on average over ARM-only/Accelerator-only, because it
 * accounts for packet-size-dependent throughput and skips costly off-chip
 * hops when they do not pay.
 */
#include "bench_util.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/traffic/profiles.hpp"

using namespace lognic;

namespace {

struct SchemeResult {
    double tput_gbps;
    double latency_us;
};

SchemeResult
evaluate(const apps::NfPlacement& placement,
         const core::TrafficProfile& traffic)
{
    const auto sc = apps::make_nf_chain(placement);
    sim::SimOptions opts;
    opts.duration = 0.02;
    const auto res = sim::simulate(sc.hw, sc.graph, traffic, opts);
    return {res.delivered.gbps(), res.mean_latency.micros()};
}

} // namespace

int
main()
{
    bench::banner("Figures 13 & 14",
                  "NF chain on BlueField-2: throughput (Gbps) and mean "
                  "latency (us) vs packet size for three placements");

    bench::header({"pktsize", "ARM-thr", "Accel-thr", "Opt-thr", "ARM-lat",
                   "Accel-lat", "Opt-lat"});

    double thr_gain_arm = 0.0;
    double thr_gain_acc = 0.0;
    double lat_save_arm = 0.0;
    double lat_save_acc = 0.0;
    int n = 0;

    for (Bytes size : traffic::standard_packet_sizes()) {
        // Offer 80% of the optimal placement's capacity for this size.
        const auto probe = core::TrafficProfile::fixed(
            size, Bandwidth::from_gbps(50.0));
        const auto opt_placement = dse::lognic_opt_placement(probe);
        const auto opt_sc = apps::make_nf_chain(opt_placement);
        const double capacity = core::Model(opt_sc.hw)
                                    .throughput(opt_sc.graph, probe)
                                    .capacity.bits_per_sec();
        const auto traffic =
            core::TrafficProfile::fixed(size, Bandwidth{0.8 * capacity});

        const auto arm = evaluate(apps::arm_only_placement(), traffic);
        const auto acc =
            evaluate(apps::accelerator_only_placement(), traffic);
        const auto opt = evaluate(opt_placement, traffic);

        bench::row(std::to_string(static_cast<int>(size.bytes())) + "B",
                   {arm.tput_gbps, acc.tput_gbps, opt.tput_gbps,
                    arm.latency_us, acc.latency_us, opt.latency_us});

        thr_gain_arm += opt.tput_gbps / arm.tput_gbps - 1.0;
        thr_gain_acc += opt.tput_gbps / acc.tput_gbps - 1.0;
        lat_save_arm += 1.0 - opt.latency_us / arm.latency_us;
        lat_save_acc += 1.0 - opt.latency_us / acc.latency_us;
        ++n;
    }

    std::printf("\nLogNIC-opt vs ARM-only:   throughput +%.1f%%, latency "
                "%+.1f%% (paper: +81.9%%, -37.9%%)\n",
                100.0 * thr_gain_arm / n, -100.0 * lat_save_arm / n);
    std::printf("LogNIC-opt vs Accel-only: throughput +%.1f%%, latency "
                "%+.1f%% (paper: +21.7%%, -27.3%%)\n",
                100.0 * thr_gain_acc / n, -100.0 * lat_save_acc / n);

    bench::footnote("ARM wins small packets (offload prep dominates), "
                    "accelerators win MTU (streaming dominates), and the "
                    "optimizer dominates both everywhere.");
    return 0;
}
