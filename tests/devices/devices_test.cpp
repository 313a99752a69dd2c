#include <gtest/gtest.h>

#include "lognic/devices/bluefield2.hpp"
#include "lognic/devices/liquidio.hpp"
#include "lognic/devices/panic_proto.hpp"
#include "lognic/devices/stingray.hpp"

namespace lognic::devices {
namespace {

TEST(LiquidIo, CatalogIsComplete)
{
    const core::HardwareModel hw = liquidio_cn2360();
    EXPECT_EQ(hw.line_rate().gbps(), 25.0);
    for (LiquidIoKernel k : liquidio_kernels()) {
        const auto ip = hw.find_ip(to_string(k));
        ASSERT_TRUE(ip.has_value()) << to_string(k);
        EXPECT_EQ(hw.ip(*ip).kind, core::IpKind::kAccelerator);
        EXPECT_GT(liquidio_accel_rate(k).per_sec(), 0.0);
    }
}

TEST(LiquidIo, OffChipEnginesUseIoInterconnect)
{
    EXPECT_TRUE(is_off_chip(LiquidIoKernel::kHfa));
    EXPECT_TRUE(is_off_chip(LiquidIoKernel::kZip));
    EXPECT_FALSE(is_off_chip(LiquidIoKernel::kMd5));
    const core::HardwareModel hw = liquidio_cn2360();
    const auto& hfa = hw.ip(*hw.find_ip("hfa"));
    ASSERT_EQ(hfa.roofline.ceilings().size(), 1u);
    EXPECT_EQ(hfa.roofline.ceilings()[0].name, "io-interconnect");
    EXPECT_DOUBLE_EQ(hfa.roofline.ceilings()[0].bw.gbps(), 40.0);
    const auto& md5 = hw.ip(*hw.find_ip("md5"));
    EXPECT_EQ(md5.roofline.ceilings()[0].name, "cmi");
    EXPECT_DOUBLE_EQ(md5.roofline.ceilings()[0].bw.gbps(), 50.0);
}

TEST(LiquidIo, AcceleratorRatesMatchFigure5Calibration)
{
    // Peak op rates were derived from the paper's 16 KB-granularity
    // fractions (13.6 / 17.3 / 21.2 / 25.8 % of max for CRC/3DES/MD5/HFA).
    auto pct_at_16k = [](LiquidIoKernel k) {
        const double peak = liquidio_accel_rate(k).per_sec();
        const double feed_gbps = is_off_chip(k) ? 40.0 : 50.0;
        const double ceiling = feed_gbps * 1e9 / 8.0 / 16384.0;
        return 100.0 * ceiling / peak;
    };
    EXPECT_NEAR(pct_at_16k(LiquidIoKernel::kCrc), 13.6, 0.3);
    EXPECT_NEAR(pct_at_16k(LiquidIoKernel::k3Des), 17.3, 0.4);
    EXPECT_NEAR(pct_at_16k(LiquidIoKernel::kMd5), 21.2, 0.4);
    EXPECT_NEAR(pct_at_16k(LiquidIoKernel::kHfa), 25.8, 0.5);
}

TEST(LiquidIo, CoreIpBoundsChecked)
{
    core::HardwareModel hw = liquidio_cn2360();
    EXPECT_THROW(add_core_ip(hw, LiquidIoKernel::kMd5, 0),
                 std::invalid_argument);
    EXPECT_THROW(add_core_ip(hw, LiquidIoKernel::kMd5, 17),
                 std::invalid_argument);
    const auto id = add_core_ip(hw, LiquidIoKernel::kMd5, 12);
    EXPECT_EQ(hw.ip(id).max_engines, 12u);
    EXPECT_EQ(hw.ip(id).name, "cores-md5");
}

TEST(LiquidIo, CoreCostGrowsWithPacketSize)
{
    const Seconds small =
        liquidio_core_cost(LiquidIoKernel::kMd5, Bytes{64.0});
    const Seconds large =
        liquidio_core_cost(LiquidIoKernel::kMd5, Bytes{1500.0});
    EXPECT_GT(large.seconds(), small.seconds());
    // HFA orchestration is the most expensive (the 11-core kernel).
    EXPECT_GT(
        liquidio_core_cost(LiquidIoKernel::kHfa, Bytes{1500.0}).seconds(),
        large.seconds());
}

TEST(BlueField2, CatalogAndChain)
{
    const core::HardwareModel hw = bluefield2();
    EXPECT_EQ(hw.line_rate().gbps(), 100.0);
    for (const char* name : {"regex", "hash", "conntrack", "crypto"})
        EXPECT_TRUE(hw.find_ip(name).has_value()) << name;
    const auto chain = nf_chain_order();
    ASSERT_EQ(chain.size(), 5u);
    EXPECT_EQ(chain[2], NetworkFunction::kDpi);
}

TEST(BlueField2, DpiHasNoAccelerator)
{
    EXPECT_FALSE(nf_accelerable(NetworkFunction::kDpi));
    EXPECT_THROW(nf_accelerator(NetworkFunction::kDpi),
                 std::invalid_argument);
    EXPECT_TRUE(nf_accelerable(NetworkFunction::kEncryption));
    EXPECT_STREQ(nf_accelerator(NetworkFunction::kEncryption), "crypto");
}

TEST(BlueField2, ArmWinsSmallPacketsOffloadWinsLarge)
{
    // The case-study premise: at 64 B the offload prep exceeds the ARM
    // cost; at MTU the ARM streaming cost exceeds the prep.
    for (NetworkFunction nf :
         {NetworkFunction::kFirewall, NetworkFunction::kLoadBalancer,
          NetworkFunction::kNat}) {
        EXPECT_LT(bf2_arm_cost(nf, Bytes{64.0}).seconds(),
                  bf2_offload_prep(nf).seconds())
            << to_string(nf);
        EXPECT_GT(bf2_arm_cost(nf, Bytes{1500.0}).seconds(),
                  bf2_offload_prep(nf).seconds())
            << to_string(nf);
    }
}

TEST(BlueField2, ArmIpBuilder)
{
    core::HardwareModel hw = bluefield2();
    const auto id = add_arm_ip(hw, "arm", Seconds::from_micros(1.0), 2.0);
    EXPECT_EQ(hw.ip(id).max_engines, 8u);
    // Two streamed passes halve the effective byte rate.
    EXPECT_NEAR(hw.ip(id).roofline.engine().byte_rate.gbps(),
                bf2_arm_stream_rate().gbps() / 2.0, 1e-9);
    EXPECT_THROW(add_arm_ip(hw, "arm2", Seconds{0.0}, 1.0, 9),
                 std::invalid_argument);
}

TEST(Stingray, CatalogHasTwoCoreStages)
{
    const core::HardwareModel hw = stingray_ps1100r();
    EXPECT_TRUE(hw.find_ip("cores-submit").has_value());
    EXPECT_TRUE(hw.find_ip("cores-complete").has_value());
    EXPECT_GT(stingray_ssd_link().gbps(), 0.0);
    EXPECT_GT(stingray_submit_cost().seconds(),
              stingray_complete_cost().seconds() * 0.5);
}

TEST(PanicProto, DefaultsAndUnits)
{
    // Model 1: the RMT pipeline is IP 0, a fixed 300 ns deterministic
    // stage, followed by the chain's units in order.
    const core::HardwareModel hw = panic_pipelined_chain_hw(
        {panic_unit_ip("a", Seconds::from_nanos(50.0),
                       Bandwidth::from_gbps(10.0), 2),
         panic_unit_ip("b", Seconds::from_nanos(80.0),
                       Bandwidth::from_gbps(20.0))});
    EXPECT_DOUBLE_EQ(hw.line_rate().gbps(), 100.0);
    ASSERT_EQ(hw.ip_count(), 3u);
    const core::IpSpec& rmt = hw.ip(0);
    EXPECT_EQ(rmt.name, "rmt");
    EXPECT_EQ(rmt.service_scv, 0.0);
    EXPECT_NEAR(rmt.roofline.engine().service_time(Bytes{1500.0}).nanos(),
                300.0, 0.1);
    EXPECT_GT(rmt.default_queue_capacity, rmt.max_engines);

    const core::IpSpec& u = hw.ip(1);
    EXPECT_EQ(u.name, "a");
    EXPECT_EQ(u.max_engines, 2u);
    EXPECT_NEAR(u.roofline.engine().service_time(Bytes{1250.0}).micros(),
                0.05 + 1.0, 1e-9);
    EXPECT_EQ(hw.ip(2).name, "b");
}

TEST(PanicProto, ParallelChainRatioIs4To7To3)
{
    const core::HardwareModel hw = panic_parallel_chain_hw();
    const Bytes mtu{1500.0};
    const double a1 =
        hw.ip(*hw.find_ip("a1"))
            .roofline.attainable(mtu, hw.ip(*hw.find_ip("a1")).max_engines)
            .gbps();
    const double a2 =
        hw.ip(*hw.find_ip("a2"))
            .roofline.attainable(mtu, hw.ip(*hw.find_ip("a2")).max_engines)
            .gbps();
    const double a3 =
        hw.ip(*hw.find_ip("a3"))
            .roofline.attainable(mtu, hw.ip(*hw.find_ip("a3")).max_engines)
            .gbps();
    EXPECT_NEAR(a2 / a1, 7.0 / 4.0, 1e-6);
    EXPECT_NEAR(a3 / a1, 3.0 / 4.0, 1e-6);
    EXPECT_NEAR(a1, 40.0, 0.5);
}

TEST(PanicProto, HybridChainUnitRates)
{
    const core::HardwareModel hw = panic_hybrid_chain_hw();
    const auto& ip4 = hw.ip(*hw.find_ip("ip4"));
    EXPECT_EQ(ip4.max_engines, 8u);
    // Per-engine ~11.5 Gbps at MTU (the Figures 18/19 knob).
    EXPECT_NEAR(ip4.roofline.attainable(Bytes{1500.0}, 1).gbps(), 11.5,
                0.05);
}

} // namespace
} // namespace lognic::devices
