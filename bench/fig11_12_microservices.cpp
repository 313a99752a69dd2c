/**
 * @file
 * Figures 11 & 12: throughput and average latency of five E3 microservice
 * applications on the LiquidIO CN2360 under three core-allocation schemes:
 * round-robin (E3's default run-to-completion), equal partition, and
 * LogNIC-opt (per-stage D_vi from dse::lognic_opt_alloc).
 *
 * Paper result at 80% load: LogNIC-opt averages +34.8%/+36.4% throughput
 * and -22.4%/-22.8% latency over the two heuristics.
 */
#include "bench_util.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

namespace {

struct SchemeResult {
    double tput_mrps;
    double latency_us;
};

SchemeResult
evaluate(const apps::MicroserviceScenario& sc,
         const core::TrafficProfile& traffic)
{
    sim::SimOptions opts;
    opts.duration = 0.05;
    const auto res = sim::simulate(sc.hw, sc.graph, traffic, opts);
    return {res.delivered_ops.mops(), res.mean_latency.micros()};
}

} // namespace

int
main()
{
    bench::banner("Figures 11 & 12",
                  "E3 microservices: throughput (MRPS) and mean latency "
                  "(us) under three NIC-core allocation schemes, 80% load");

    bench::header({"app", "RR-thr", "EQ-thr", "Opt-thr", "RR-lat", "EQ-lat",
                   "Opt-lat"});

    double thr_gain_rr = 0.0;
    double thr_gain_eq = 0.0;
    double lat_save_rr = 0.0;
    double lat_save_eq = 0.0;
    int n = 0;

    for (auto w : apps::e3_workloads()) {
        // Offered load: 80% of the best scheme's capacity (as in the paper,
        // all schemes see the same traffic).
        const auto probe_traffic = core::TrafficProfile::fixed(
            apps::e3_request_size(), Bandwidth::from_gbps(5.0));
        const auto opt_alloc = dse::lognic_opt_alloc(w, probe_traffic);
        const auto opt_sc = apps::make_e3_pipeline(w, opt_alloc);
        const double opt_capacity =
            core::Model(opt_sc.hw)
                .throughput(opt_sc.graph, probe_traffic)
                .capacity.bits_per_sec();
        const auto traffic = core::TrafficProfile::fixed(
            apps::e3_request_size(), Bandwidth{0.8 * opt_capacity});

        const auto rr =
            evaluate(apps::make_e3_run_to_completion(w), traffic);
        const auto eq = evaluate(
            apps::make_e3_pipeline(w, apps::equal_partition_alloc(w)),
            traffic);
        const auto opt = evaluate(opt_sc, traffic);

        bench::row(apps::to_string(w),
                   {rr.tput_mrps, eq.tput_mrps, opt.tput_mrps,
                    rr.latency_us, eq.latency_us, opt.latency_us});

        thr_gain_rr += opt.tput_mrps / rr.tput_mrps - 1.0;
        thr_gain_eq += opt.tput_mrps / eq.tput_mrps - 1.0;
        lat_save_rr += 1.0 - opt.latency_us / rr.latency_us;
        lat_save_eq += 1.0 - opt.latency_us / eq.latency_us;
        ++n;
    }

    std::printf("\nLogNIC-opt vs RR: throughput +%.1f%%, latency -%.1f%% "
                "(paper: +34.8%%, -22.4%%)\n",
                100.0 * thr_gain_rr / n, 100.0 * lat_save_rr / n);
    std::printf("LogNIC-opt vs EQ: throughput +%.1f%%, latency -%.1f%% "
                "(paper: +36.4%%, -22.8%%)\n",
                100.0 * thr_gain_eq / n, 100.0 * lat_save_eq / n);

    bench::footnote("All numbers measured on the packet-level simulator; "
                    "allocations come from the LogNIC optimizer.");
    return 0;
}
