/**
 * @file
 * Figures 18 & 19: latency and throughput vs. IP4's parallel degree on the
 * modified PANIC Model 3 (paths IP1->IP3, IP1->IP4, IP2->IP4) for two
 * traffic splits of IP1's output: 50%/50% and 80%/20%.
 *
 * Paper result: throughput rises with the parallel degree and saturates;
 * the optimizer suggests degree 6 for the 50/50 split and 4 for 80/20.
 *
 * Accepts `--threads N`: the 16 simulated design points fan out over the
 * runner's thread pool; per-point seeds derive from the point index, so
 * output is byte-identical for any N.
 */
#include "bench_util.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

int
main(int argc, char** argv)
{
    const std::size_t threads = bench::threads_arg(argc, argv);
    bench::banner("Figures 18 & 19",
                  "PANIC Model-3: latency (us) and throughput (Gbps) vs "
                  "IP4 parallel degree for two traffic splits");

    const auto traffic = core::TrafficProfile::fixed(
        Bytes{1500.0}, Bandwidth::from_gbps(100.0));

    std::vector<std::string> cols{"series"};
    for (int d = 1; d <= 8; ++d)
        cols.push_back("D=" + std::to_string(d));
    cols.push_back("D*");
    bench::header(cols);

    const std::vector<double> splits{0.5, 0.8};

    // All (split x degree) simulation points go through one sweep.
    runner::Sweep sweep;
    for (double split : splits) {
        for (std::uint32_t d = 1; d <= 8; ++d) {
            const auto sc = apps::make_panic_hybrid(split, d);
            sim::SimOptions opts;
            opts.duration = 0.02;
            sweep.add(runner::SweepPoint{
                "split=" + std::to_string(split)
                    + ",D=" + std::to_string(d),
                sc.hw, sc.graph, traffic, opts});
        }
    }
    runner::SweepOptions ropts;
    ropts.threads = threads;
    ropts.replications = 1;
    ropts.root_seed = 13;
    const auto results = sweep.run(ropts);

    for (std::size_t s = 0; s < splits.size(); ++s) {
        const double split = splits[s];
        const std::uint32_t d_opt =
            dse::lognic_opt_parallelism(split, traffic);

        std::vector<double> sim_thr;
        std::vector<double> sim_lat;
        std::vector<double> model_thr;
        for (std::uint32_t d = 1; d <= 8; ++d) {
            const auto& pr = results[s * 8 + (d - 1)];
            sim_thr.push_back(pr.stats.delivered_gbps.mean);
            sim_lat.push_back(pr.stats.mean_latency_us.mean);
            const auto sc = apps::make_panic_hybrid(split, d);
            const core::Model model(sc.hw);
            model_thr.push_back(model.latency(sc.graph, traffic)
                                    .per_class[0]
                                    .goodput.gbps());
        }
        const std::string name = split == 0.5 ? "50/50" : "80/20";
        auto with_opt = [&](std::vector<double> v) {
            v.push_back(static_cast<double>(d_opt));
            return v;
        };
        bench::row(name + "/lat-sim", with_opt(sim_lat));
        bench::row(name + "/thr-sim", with_opt(sim_thr));
        bench::row(name + "/thr-model", with_opt(model_thr));
    }

    bench::footnote(
        "Paper: optimal parallel degree 6 (50/50 split) and 4 (80/20); "
        "latency falls then flattens, throughput rises then saturates.");
    return 0;
}
