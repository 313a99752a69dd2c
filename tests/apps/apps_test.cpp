#include <gtest/gtest.h>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/apps/nvmeof.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/core/model.hpp"
#include "lognic/traffic/profiles.hpp"

namespace lognic::apps {
namespace {

core::TrafficProfile
mtu(double gbps)
{
    return core::TrafficProfile::fixed(Bytes{1500.0},
                                       Bandwidth::from_gbps(gbps));
}

// --- Case study #1: inline acceleration --------------------------------------

TEST(InlineAccel, ScenarioValidates)
{
    for (auto k : devices::liquidio_kernels()) {
        const auto sc = make_inline_accel(k);
        EXPECT_NO_THROW(sc.graph.validate(sc.hw)) << devices::to_string(k);
    }
}

TEST(InlineAccel, Figure9SaturationCores)
{
    // The paper: MD5/KASUMI/HFA max out at 9/8/11 NIC cores at MTU rate.
    const struct {
        devices::LiquidIoKernel kernel;
        unsigned cores;
    } expected[] = {{devices::LiquidIoKernel::kMd5, 9},
                    {devices::LiquidIoKernel::kKasumi, 8},
                    {devices::LiquidIoKernel::kHfa, 11}};
    for (const auto& e : expected) {
        double saturated = 0.0;
        {
            const auto sc = make_inline_accel(e.kernel, 16);
            saturated = core::Model(sc.hw)
                            .throughput(sc.graph, mtu(25.0))
                            .capacity.bits_per_sec();
        }
        unsigned need = 16;
        for (unsigned c = 1; c <= 16; ++c) {
            const auto sc = make_inline_accel(e.kernel, c);
            const double cap = core::Model(sc.hw)
                                   .throughput(sc.graph, mtu(25.0))
                                   .capacity.bits_per_sec();
            if (cap >= 0.999 * saturated) {
                need = c;
                break;
            }
        }
        EXPECT_EQ(need, e.cores) << devices::to_string(e.kernel);
    }
}

TEST(InlineAccel, Figure10MinLawHolds)
{
    // Achieved bandwidth ~ min(P_IP2 * pktsize, 25 Gbps).
    const auto sc = make_inline_accel(devices::LiquidIoKernel::kCrc, 16);
    const core::Model model(sc.hw);
    for (double size : {64.0, 256.0, 1024.0, 1500.0}) {
        const auto est = model.throughput(
            sc.graph,
            core::TrafficProfile::fixed(Bytes{size},
                                        Bandwidth::from_gbps(25.0)));
        const double accel_bw =
            devices::liquidio_accel_rate(devices::LiquidIoKernel::kCrc)
                .per_sec()
            * size * 8.0;
        const double expected = std::min(accel_bw, 25e9);
        EXPECT_NEAR(est.capacity.bits_per_sec(), expected, 0.05 * expected)
            << size;
    }
}

TEST(InlineAccel, Figure5GranularityCliff)
{
    const auto sc =
        make_inline_accel_unbounded(devices::LiquidIoKernel::kCrc, 16);
    const core::Model model(sc.hw);
    auto mops_at = [&](double granularity) {
        const auto est = model.throughput(
            sc.graph,
            core::TrafficProfile::fixed(Bytes{granularity},
                                        Bandwidth::from_gbps(200.0)));
        return est.capacity.bytes_per_sec() / granularity / 1e6;
    };
    const double peak = mops_at(512.0);
    EXPECT_GT(mops_at(2048.0), 0.90 * peak);      // flat until 2 KB
    EXPECT_LT(mops_at(8192.0), 0.30 * peak);      // cliff past 4 KB
    EXPECT_NEAR(mops_at(16384.0) / peak, 0.14, 0.02); // paper: 13.6%
}

// --- Case study #2: NVMe-oF --------------------------------------------------

TEST(NvmeOf, ScenarioMatchesFigure2cShape)
{
    const ssd::SsdGroundTruth ssd;
    const auto workload = traffic::random_read_4k();
    const auto calib = ssd::calibrate(ssd.characterize(workload, 12),
                                      workload.block_size);
    const auto sc = make_nvmeof_target(calib, workload);
    EXPECT_NO_THROW(sc.graph.validate(sc.hw));
    EXPECT_EQ(sc.graph.vertex_count(), 5u); // in, submit, ssd, complete, out
    const auto paths = sc.graph.enumerate_paths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].edges.size(), 4u);
}

TEST(NvmeOf, LatencyHockeyStickWithRate)
{
    const ssd::SsdGroundTruth ssd;
    const auto workload = traffic::random_read_4k();
    const auto calib = ssd::calibrate(ssd.characterize(workload, 12),
                                      workload.block_size);
    const auto sc = make_nvmeof_target(calib, workload);
    const core::Model model(sc.hw);
    const double cap_gbps = calib.capacity.gbps();
    const auto low = model.latency(
        sc.graph, core::TrafficProfile::fixed(
                      workload.block_size,
                      Bandwidth::from_gbps(0.1 * cap_gbps)));
    const auto high = model.latency(
        sc.graph, core::TrafficProfile::fixed(
                      workload.block_size,
                      Bandwidth::from_gbps(0.95 * cap_gbps)));
    EXPECT_GT(high.mean.seconds(), 1.2 * low.mean.seconds());
}

TEST(NvmeOf, MixedModelUnderestimatesGroundTruth)
{
    const ssd::SsdGroundTruth ssd;
    const auto rd = traffic::random_mixed_4k(1.0);
    const auto wr = traffic::random_mixed_4k(0.0);
    const auto calib_rd =
        ssd::calibrate(ssd.characterize(rd, 12), rd.block_size);
    const auto calib_wr =
        ssd::calibrate(ssd.characterize(wr, 12), wr.block_size);
    for (double r : {0.2, 0.5, 0.8}) {
        const auto modeled =
            mixed_model_bandwidth(calib_rd, calib_wr, r);
        const auto measured = ssd.capacity(traffic::random_mixed_4k(r));
        EXPECT_GT(measured.bits_per_sec(), modeled.bits_per_sec()) << r;
        // Single-digit-to-~20% gap, same regime as the paper's 14.6%.
        EXPECT_LT(measured.bits_per_sec(), 1.30 * modeled.bits_per_sec())
            << r;
    }
    EXPECT_THROW(mixed_model_bandwidth(calib_rd, calib_wr, 1.5),
                 std::invalid_argument);
}

// --- Case study #3: microservice parallelism ---------------------------------

TEST(Microservices, CatalogHasFiveWorkloads)
{
    EXPECT_EQ(e3_workloads().size(), 5u);
    for (auto w : e3_workloads())
        EXPECT_GE(e3_stages(w).size(), 3u);
}

TEST(Microservices, PipelineBuilderValidates)
{
    const auto alloc = equal_partition_alloc(E3Workload::kNfvFin);
    const auto sc = make_e3_pipeline(E3Workload::kNfvFin, alloc);
    EXPECT_NO_THROW(sc.graph.validate(sc.hw));
    EXPECT_EQ(sc.stage_vertices.size(),
              e3_stages(E3Workload::kNfvFin).size());
    EXPECT_THROW(make_e3_pipeline(E3Workload::kNfvFin, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(make_e3_pipeline(E3Workload::kNfvFin, {8, 8, 8, 8}),
                 std::invalid_argument);
    EXPECT_THROW(make_e3_pipeline(E3Workload::kNfvFin, {0, 8, 4, 4}),
                 std::invalid_argument);
}

TEST(Microservices, EqualPartitionDistributesRemainder)
{
    const auto alloc = equal_partition_alloc(E3Workload::kRtaShm, 16);
    ASSERT_EQ(alloc.size(), 3u); // 3 stages
    EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 16u);
    EXPECT_EQ(alloc[0], 6u);
    EXPECT_EQ(alloc[1], 5u);
}

// --- Case study #4: NF placement ---------------------------------------------

TEST(NfChain, PlacementEnumerationComplete)
{
    EXPECT_EQ(all_placements().size(), 16u);
    const auto arm = arm_only_placement();
    EXPECT_FALSE(arm.fw || arm.lb || arm.nat || arm.pe);
    const auto acc = accelerator_only_placement();
    EXPECT_TRUE(acc.fw && acc.lb && acc.nat && acc.pe);
    EXPECT_FALSE(acc.offloaded(devices::NetworkFunction::kDpi));
}

TEST(NfChain, ScenariosValidate)
{
    for (const auto& p : all_placements()) {
        const auto sc = make_nf_chain(p);
        EXPECT_NO_THROW(sc.graph.validate(sc.hw)) << p.to_string();
    }
}

TEST(NfChain, ArmWins64BytesAcceleratorWinsMtu)
{
    const core::TrafficProfile small = core::TrafficProfile::fixed(
        Bytes{64.0}, Bandwidth::from_gbps(40.0));
    const core::TrafficProfile large = mtu(90.0);

    auto capacity = [](const NfPlacement& p,
                       const core::TrafficProfile& t) {
        const auto sc = make_nf_chain(p);
        return core::Model(sc.hw)
            .throughput(sc.graph, t)
            .capacity.bits_per_sec();
    };
    EXPECT_GT(capacity(arm_only_placement(), small),
              capacity(accelerator_only_placement(), small));
    EXPECT_GT(capacity(accelerator_only_placement(), large),
              capacity(arm_only_placement(), large));
}

// --- Case study #5: PANIC ----------------------------------------------------

TEST(PanicModels, Figure15OptimalCredits)
{
    // The paper's optimizer suggestion: 5/4/4/4 credits for profiles 1-4.
    const Bandwidth offered = Bandwidth::from_gbps(90.0);
    EXPECT_EQ(lognic_optimal_credits(traffic::panic_profile(1, offered)), 5u);
    EXPECT_EQ(lognic_optimal_credits(traffic::panic_profile(2, offered)), 4u);
    EXPECT_EQ(lognic_optimal_credits(traffic::panic_profile(3, offered)), 4u);
    EXPECT_EQ(lognic_optimal_credits(traffic::panic_profile(4, offered)), 4u);
}

TEST(PanicModels, ChainCapacityMonotoneInCredits)
{
    const auto tp = traffic::panic_profile(1, Bandwidth::from_gbps(90.0));
    double prev = 0.0;
    for (std::uint32_t c = 1; c <= 8; ++c) {
        const double cap =
            lognic_panic_chain_capacity(tp, c).bits_per_sec();
        EXPECT_GE(cap, prev);
        prev = cap;
    }
}

TEST(PanicModels, BuildersValidate)
{
    EXPECT_THROW(make_panic_parallel_chain(0.0), std::invalid_argument);
    EXPECT_THROW(make_panic_parallel_chain(85.0), std::invalid_argument);
    EXPECT_THROW(make_panic_hybrid(0.5, 0), std::invalid_argument);
    EXPECT_THROW(make_panic_hybrid(1.5, 4), std::invalid_argument);
    EXPECT_THROW(make_panic_pipelined_chain(0), std::invalid_argument);

    const auto par = make_panic_parallel_chain(56.0);
    EXPECT_NO_THROW(par.graph.validate(par.hw));
    const auto hyb = make_panic_hybrid(0.5, 6);
    EXPECT_NO_THROW(hyb.graph.validate(hyb.hw));
    EXPECT_EQ(hyb.graph.enumerate_paths().size(), 3u);
    // Model 1: ingress -> rmt -> unit1..3 -> egress, the units credited.
    const auto chain = make_panic_pipelined_chain(5);
    EXPECT_NO_THROW(chain.graph.validate(chain.hw));
    EXPECT_EQ(chain.graph.vertex_count(), 6u);
    EXPECT_EQ(chain.graph.enumerate_paths().size(), 1u);
    EXPECT_EQ(chain.graph.vertex(*chain.graph.find_vertex("unit3"))
                  .params.credits,
              5u);
    EXPECT_EQ(chain.graph.vertex(*chain.graph.find_vertex("rmt"))
                  .params.credits,
              0u);
}

TEST(PanicModels, MeanRequestSizeIsPacketCountMean)
{
    const auto tp = traffic::panic_profile(1, Bandwidth::from_gbps(1.0));
    // Equal bytes at 64/512: total pkts per byte = 0.5/64 + 0.5/512.
    EXPECT_NEAR(mean_request_size(tp).bytes(),
                1.0 / (0.5 / 64.0 + 0.5 / 512.0), 1e-9);
}

} // namespace
} // namespace lognic::apps
