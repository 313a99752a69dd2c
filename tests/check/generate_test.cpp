/**
 * @file
 * The scenario generator: deterministic, always valid, and bounded to the
 * configured load regime.
 */
#include <gtest/gtest.h>

#include "lognic/check/generate.hpp"
#include "lognic/core/model.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::check {
namespace {

TEST(CheckRng, SameSeedSameStream)
{
    CheckRng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CheckRng, Uniform01StaysInUnitInterval)
{
    CheckRng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(CheckRng, UniformU32CoversInclusiveRange)
{
    CheckRng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t v = rng.uniform_u32(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3u;
        saw_hi |= v == 6u;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(GenerateScenario, SameSeedIsBitIdentical)
{
    const GeneratedScenario a = generate_scenario(12345);
    const GeneratedScenario b = generate_scenario(12345);
    EXPECT_EQ(io::to_json(a.scenario).dump(), io::to_json(b.scenario).dump());
    EXPECT_EQ(a.single_queue, b.single_queue);
    EXPECT_DOUBLE_EQ(a.target_utilization, b.target_utilization);
}

TEST(GenerateScenario, DifferentSeedsDiffer)
{
    const GeneratedScenario a = generate_scenario(1);
    const GeneratedScenario b = generate_scenario(2);
    EXPECT_NE(io::to_json(a.scenario).dump(), io::to_json(b.scenario).dump());
}

TEST(GenerateScenario, ManySeedsValidateAndStayInRegime)
{
    const GeneratorConfig cfg;
    std::size_t single = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const GeneratedScenario gen = generate_scenario(seed, cfg);
        // generate_scenario validates internally; re-validate to make the
        // contract explicit in the test.
        EXPECT_NO_THROW(gen.scenario.graph.validate(gen.scenario.hw))
            << seed;
        EXPECT_GE(gen.target_utilization, cfg.rho_min) << seed;
        EXPECT_LE(gen.target_utilization, cfg.rho_max) << seed;
        EXPECT_GT(gen.scenario.traffic.ingress_bandwidth().bits_per_sec(),
                  0.0)
            << seed;
        if (gen.single_queue)
            ++single;
    }
    // With single_queue_fraction = 0.35 both branches must appear often.
    EXPECT_GT(single, 30u);
    EXPECT_LT(single, 170u);
}

TEST(GenerateScenario, SharesThatRoundAboveOneStillGenerate)
{
    // Seed 936 narrows a layer to one vertex whose summed share rounds to
    // 1 + eps; its egress edge used to fail validation.
    const GeneratedScenario gen = generate_scenario(936);
    EXPECT_FALSE(gen.single_queue);
    EXPECT_NO_THROW(gen.scenario.graph.validate(gen.scenario.hw));
    const core::ExecutionGraph& g = gen.scenario.graph;
    for (core::EdgeId e = 0; e < g.edge_count(); ++e)
        EXPECT_LE(g.edge(e).params.delta, 1.0);
}

TEST(GenerateScenario, ScenariosThatGeneratedBeforeAreUnchanged)
{
    // Digest of the saved scenario documents of the first 256 seeds,
    // pinned before shares were clamped: clamping only touches draws that
    // used to throw.
    std::uint64_t digest = io::fnv1a64("");
    for (std::uint64_t seed = 0; seed < 256; ++seed)
        digest = io::fnv1a64(io::u64_to_hex(digest)
                             + io::save_scenario(generate_scenario(seed).scenario));
    EXPECT_EQ(io::u64_to_hex(digest), "0x90548b38dc76d7ee");
}

TEST(GenerateScenario, SingleQueueDrawsPinRhoExactly)
{
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        const GeneratedScenario gen = generate_scenario(seed);
        if (!gen.single_queue)
            continue;
        ASSERT_EQ(gen.scenario.graph.vertex_count(), 3u) << seed;
        ASSERT_EQ(gen.scenario.traffic.classes().size(), 1u) << seed;
        const auto& cls = gen.scenario.traffic.classes()[0];
        const auto ip = gen.scenario.hw.find_ip("worker");
        ASSERT_TRUE(ip.has_value()) << seed;
        const double mean_service = gen.scenario.hw.ip(*ip)
                                        .roofline.engine()
                                        .service_time(cls.size)
                                        .seconds();
        const double lambda =
            gen.scenario.traffic.ingress_bandwidth().bytes_per_sec()
            / cls.size.bytes();
        EXPECT_NEAR(lambda * mean_service, gen.target_utilization, 1e-9)
            << seed;
    }
}

TEST(GenerateScenario, DagDrawsPinRhoAtModelCapacity)
{
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const GeneratedScenario gen = generate_scenario(seed);
        if (gen.single_queue)
            continue;
        const core::Model model(gen.scenario.hw);
        const double capacity =
            model.throughput(gen.scenario.graph, gen.scenario.traffic)
                .capacity.bits_per_sec();
        const double offered =
            gen.scenario.traffic.ingress_bandwidth().bits_per_sec();
        EXPECT_NEAR(offered / capacity, gen.target_utilization, 1e-6)
            << seed;
    }
}

} // namespace
} // namespace lognic::check
