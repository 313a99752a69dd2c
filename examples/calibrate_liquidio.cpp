/**
 * @file
 * Round-trip calibration demo: re-derive the LiquidIO-II CN2360 catalog
 * from DES-generated measurements (the repository's stand-in for a real
 * testbed).
 *
 * The walkthrough follows the paper's S4.3/S4.7 methodology end to end:
 *
 *   1. take the true CN2360 catalog and the MD5 inline-acceleration
 *      program (case study #1) as the "physical device";
 *   2. run the packet-level simulator over a rate x packet-size grid to
 *      collect (traffic, throughput, latency) observations;
 *   3. deliberately warp the catalog — as if we only had vague vendor
 *      numbers — and hand the calibrator the warped catalog, the
 *      measurements, and three free parameters;
 *   4. fit, and check the recovered catalog predicts *held-out* operating
 *      points within 10% mean relative throughput error.
 *
 * The CMI bandwidth is included as a free parameter on purpose: the MD5
 * accelerator saturates long before the 50 Gbps CMI feed binds, so the
 * measurements only weakly constrain it. The printed true/warped/fitted
 * comparison makes the resulting drift visible — a weakly-identified
 * parameter can land far from its true value while the catalog still
 * predicts held-out workloads accurately, which is why the acceptance
 * check is goodness-of-fit on holdout data, not parameter recovery.
 */
#include <cstdio>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/calib/calibrator.hpp"
#include "lognic/devices/liquidio.hpp"

using namespace lognic;

int
main()
{
    // --- 1. The "physical device": true catalog + offloaded program ----
    const apps::InlineAccelScenario sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kMd5, 16);

    // --- 2. Measure it: DES over a rate x packet-size grid -------------
    // Rates straddle the MD5 engine's knee (1.8 Mops => ~14.7 Gbps at
    // 1 KiB packets, ~3.7 Gbps at 256 B), so the grid sees both the
    // linear region and saturation for every packet size.
    calib::GenerationSpec gen;
    gen.rates_gbps = {2.0, 4.0, 8.0, 12.0, 16.0, 20.0};
    gen.packet_sizes_bytes = {256.0, 512.0, 1024.0, 1518.0};
    gen.replications = 1;
    gen.root_seed = 7;
    gen.threads = 4;
    gen.sim.duration = 0.004;

    const core::TrafficProfile base_traffic = core::TrafficProfile::fixed(
        Bytes{1024}, devices::liquidio_line_rate());
    const calib::Dataset data =
        calib::generate_dataset(sc.hw, sc.graph, base_traffic, gen);
    std::printf("measured %zu operating points on the true catalog\n",
                data.size());

    // --- 3. Warp the catalog: what a rough vendor sheet might say ------
    // MD5 engine 2.2x too slow, core orchestration 1.8x too cheap, CMI
    // 1.4x too fat. The warped candidate is the calibration's base.
    calib::Candidate truth{sc.hw, {sc.graph}};
    calib::ParameterSpace probe(truth);
    probe.add("ip.md5.fixed_cost_us");
    probe.add("ip.cores-md5.fixed_cost_us");
    probe.add("memory_gbps");
    const solver::Vector x_true = probe.initial();
    const calib::Candidate warped =
        probe.apply({x_true[0] * 2.2, x_true[1] / 1.8, x_true[2] * 1.4});

    calib::ParameterSpace space(warped);
    space.add("ip.md5.fixed_cost_us");
    space.add("ip.cores-md5.fixed_cost_us");
    space.add("memory_gbps");

    // --- 4. Calibrate and validate on held-out points ------------------
    calib::CalibratorOptions opts;
    opts.fit.starts = 3;
    opts.fit.threads = 4;
    opts.fit.seed = 7;
    opts.loss.throughput_weight = 1.0;
    opts.loss.latency_weight = 0.25;
    opts.holdout_fraction = 0.25;

    const calib::Calibrator calibrator(space, data, opts);
    const calib::CalibrationReport report = calibrator.fit();
    std::printf("%s\n", calib::render(report).c_str());

    for (std::size_t i = 0; i < report.parameter_names.size(); ++i) {
        std::printf("%-28s true %10.4f  warped %10.4f  fitted %10.4f\n",
                    report.parameter_names[i].c_str(), x_true[i],
                    report.initial[i], report.fitted[i]);
    }

    const double holdout = report.holdout_error.throughput;
    std::printf("holdout mean |rel throughput error| = %.2f%% "
                "(acceptance: < 10%%)\n",
                100.0 * holdout);
    if (holdout >= 0.10) {
        std::printf("FAILED: fitted catalog does not generalize\n");
        return 1;
    }
    std::printf("OK: recovered catalog generalizes to unseen workloads\n");
    return 0;
}
