/**
 * @file
 * Figures 16 & 17: PANIC central-scheduler traffic steering (Model 2
 * "Parallelized Chain", accelerators A1:A2:A3 with 4:7:3 computing
 * throughput, traffic split 20% / X% / (80-X)%).
 *
 * Four static splits (10/70, 30/50, 50/30, 70/10) are compared against the
 * LogNIC-suggested X for 64B/512B/MTU traffic. Paper result: the optimizer
 * steers in proportion to accelerator capability (X = 56), cutting latency
 * by 11.7-57.2% and raising throughput by 16.3-159.1%.
 */
#include "bench_util.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

namespace {

struct SchemeResult {
    double tput_gbps;
    double latency_us;
};

SchemeResult
evaluate(double x_percent, const core::TrafficProfile& traffic)
{
    const auto sc = apps::make_panic_parallel_chain(x_percent);
    sim::SimOptions opts;
    opts.duration = 0.02;
    opts.seed = 9;
    const auto res = sim::simulate(sc.hw, sc.graph, traffic, opts);
    return {res.delivered.gbps(), res.mean_latency.micros()};
}

} // namespace

int
main()
{
    bench::banner("Figures 16 & 17",
                  "PANIC traffic steering: latency (us) and throughput "
                  "(Gbps) for static splits vs the LogNIC-suggested split");

    const struct {
        const char* name;
        Bytes size;
        Bandwidth offered;
    } profiles[] = {
        {"TP1(64B)", Bytes{64.0}, Bandwidth::from_gbps(18.0)},
        {"TP2(512B)", Bytes{512.0}, Bandwidth::from_gbps(55.0)},
        {"TP3(MTU)", Bytes{1500.0}, Bandwidth::from_gbps(75.0)},
    };
    const double static_splits[] = {10.0, 30.0, 50.0, 70.0};

    bench::header({"profile", "metric", "10/70", "30/50", "50/30", "70/10",
                   "LogNIC", "X*"});

    for (const auto& p : profiles) {
        const auto traffic = core::TrafficProfile::fixed(p.size, p.offered);
        const double x_opt = dse::lognic_opt_split(traffic);

        std::vector<double> lat;
        std::vector<double> thr;
        for (double x : static_splits) {
            const auto r = evaluate(x, traffic);
            lat.push_back(r.latency_us);
            thr.push_back(r.tput_gbps);
        }
        const auto opt = evaluate(x_opt, traffic);
        lat.push_back(opt.latency_us);
        lat.push_back(x_opt);
        thr.push_back(opt.tput_gbps);
        thr.push_back(x_opt);
        bench::row(p.name, lat);
        std::printf("%14s", "");
        bench::row("thr", thr);
    }

    bench::footnote(
        "Paper: LogNIC steers proportionally to capability (X ~ 56), "
        "reducing latency 11.7/15.6/38.4/57.2% and raising throughput "
        "16.3/11.4/84.8/159.1% vs the four static splits.");
    return 0;
}
