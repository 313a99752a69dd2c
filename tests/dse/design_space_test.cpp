// DesignSpace: knob declaration by string path (reusing calib's path
// machinery for catalog paths), validation, materialization, canonical
// keys, and the rebuild/base-bound exclusion rule.
#include "lognic/dse/design_space.hpp"

#include <gtest/gtest.h>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/core/model.hpp"

using namespace lognic;
using dse::Config;
using dse::DesignSpace;

namespace {

io::Scenario
nf_base()
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{std::move(built.hw), std::move(built.graph),
                        core::TrafficProfile::fixed(
                            Bytes{1500.0}, Bandwidth::from_gbps(20.0))};
}

} // namespace

TEST(DesignSpace, CatalogPathKnobMaterializes)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0, 400.0});
    ASSERT_EQ(space.size(), 1u);
    EXPECT_EQ(space.combinations(), 3u);

    const auto sc = space.materialize({2});
    EXPECT_DOUBLE_EQ(sc.hw.interface_bandwidth().gbps(), 400.0);
    // The base scenario is untouched (bluefield2's interconnect is 200).
    EXPECT_DOUBLE_EQ(space.base().hw.interface_bandwidth().gbps(), 200.0);
}

TEST(DesignSpace, UnknownCatalogPathRejected)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("ip.no-such-ip.fixed_cost_us", {1.0, 2.0}),
                 std::exception);
}

TEST(DesignSpace, VertexKnobsSetParams)
{
    DesignSpace space(nf_base());
    space.add("vertex.arm.parallelism", {1.0, 2.0, 4.0});
    space.add("vertex.arm.queue_capacity", {32.0, 128.0});
    const auto sc = space.materialize({2, 1});
    const auto id = sc.graph.find_vertex("arm");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(sc.graph.vertex(*id).params.parallelism, 4u);
    EXPECT_EQ(sc.graph.vertex(*id).params.queue_capacity, 128u);
}

TEST(DesignSpace, VertexKnobValidation)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("vertex.nope.parallelism", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(space.add("vertex.arm.bogus_field", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(space.add("vertex.arm.parallelism", {0.5, 2.0}),
                 std::invalid_argument); // non-integer
    EXPECT_THROW(space.add("vertex.arm.parallelism", {0.0, 2.0}),
                 std::invalid_argument); // below minimum
}

TEST(DesignSpace, TrafficRateKnob)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {5.0, 10.0, 40.0});
    const auto sc = space.materialize({1});
    EXPECT_DOUBLE_EQ(sc.traffic.ingress_bandwidth().gbps(), 10.0);
}

TEST(DesignSpace, PlacementKnobDefaultsToAllPlacements)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    EXPECT_EQ(space.combinations(), apps::all_placements().size());
    // Level 0 is ARM-only; the last level offloads everything.
    const auto arm = space.materialize({0});
    EXPECT_TRUE(arm.graph.find_vertex("arm").has_value());
    const auto last = space.materialize(
        {static_cast<std::uint32_t>(apps::all_placements().size() - 1)});
    // Offloaded chain has accelerator vertices beyond the merged arm stage.
    EXPECT_GT(last.graph.vertex_count(), arm.graph.vertex_count());
}

TEST(DesignSpace, PlacementLevelsMaterializeTheirNfChainInAnyOrder)
{
    // The placement table is built once when the knob is declared; each
    // level must still materialize to exactly the chain make_nf_chain
    // builds for it, under the base traffic, whatever came before.
    const io::Scenario base = nf_base();
    const auto placements = apps::all_placements();
    const auto expected = [&](std::size_t p) {
        auto built = apps::make_nf_chain(placements.at(p));
        return io::to_json(io::Scenario{std::move(built.hw),
                                        std::move(built.graph),
                                        base.traffic})
            .dump(-1);
    };

    DesignSpace all(base);
    all.add("placement.nf_chain", {});
    const std::uint32_t n = static_cast<std::uint32_t>(placements.size());
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < n; ++i)
        order.push_back(i);
    for (std::uint32_t i = n; i-- > 0;)
        order.push_back(i);
    for (std::uint32_t i = 0; i < n; ++i)
        order.push_back(i * 5 % n);
    for (std::uint32_t p : order)
        EXPECT_EQ(io::to_json(all.materialize({p})).dump(-1), expected(p))
            << "placement " << p;

    // Declared levels are placement indices, not positions.
    DesignSpace some(base);
    some.add("placement.nf_chain", {3.0, 7.0, 12.0});
    for (std::uint32_t level : {2u, 0u, 1u, 2u})
        EXPECT_EQ(io::to_json(some.materialize({level})).dump(-1),
                  expected(std::vector<std::size_t>{3, 7, 12}[level]))
            << "level " << level;
}

TEST(DesignSpace, PlacementExcludesBaseBoundKnobs)
{
    // placement.* rebuilds hw+graph, so knobs bound to base-scenario names
    // must be rejected in either declaration order.
    DesignSpace a(nf_base());
    a.add("placement.nf_chain", {});
    EXPECT_THROW(a.add("vertex.arm.parallelism", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(a.add("ip.arm.fixed_cost_us", {1.0, 2.0}),
                 std::invalid_argument);

    DesignSpace b(nf_base());
    b.add("vertex.arm.parallelism", {1.0, 2.0});
    EXPECT_THROW(b.add("placement.nf_chain", {}), std::invalid_argument);

    // Scenario-independent knobs compose with placement fine.
    DesignSpace c(nf_base());
    c.add("placement.nf_chain", {});
    EXPECT_NO_THROW(c.add("traffic.rate_gbps", {10.0, 20.0}));
}

TEST(DesignSpace, LevelAndConfigValidation)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("interface_gbps", {}), std::invalid_argument);
    EXPECT_THROW(space.add("interface_gbps", {2.0, 1.0}),
                 std::invalid_argument); // not increasing
    EXPECT_THROW(space.add("interface_gbps", {1.0, 1.0}),
                 std::invalid_argument); // not strict
    space.add("interface_gbps", {50.0, 100.0});
    EXPECT_THROW(space.add("interface_gbps", {25.0, 75.0}),
                 std::invalid_argument); // duplicate
    EXPECT_THROW(space.validate({0, 0}), std::invalid_argument); // size
    EXPECT_THROW(space.validate({2}), std::invalid_argument); // level range
    EXPECT_NO_THROW(space.validate({1}));
}

TEST(DesignSpace, CanonicalKeyAndFingerprint)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0});
    space.add("traffic.rate_gbps", {5.0, 10.0});
    const Config a{0, 1};
    const Config b{1, 0};
    EXPECT_NE(space.canonical_key(a), space.canonical_key(b));
    EXPECT_NE(space.fingerprint(a), space.fingerprint(b));
    EXPECT_EQ(space.canonical_key(a), space.canonical_key(Config{0, 1}));
    // Key names the knob and the level *value*, not the index.
    EXPECT_NE(space.canonical_key(a).find("interface_gbps="),
              std::string::npos);
}

TEST(DesignSpace, CostIsWeightedLevelSum)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0}, /*cost_weight=*/2.0);
    space.add("traffic.rate_gbps", {5.0, 10.0}); // weight 0
    EXPECT_DOUBLE_EQ(space.cost({0, 1}), 100.0);
    EXPECT_DOUBLE_EQ(space.cost({1, 1}), 200.0);
}

TEST(DesignSpace, ConfigJsonNamesKnobs)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0});
    const io::Json j = space.config_json({1});
    EXPECT_DOUBLE_EQ(j.at("interface_gbps").as_number(), 100.0);
}

TEST(DesignSpace, MaterializedScenarioIsModelable)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("traffic.rate_gbps", {5.0, 20.0});
    for (std::uint32_t p = 0; p < 16; ++p) {
        const auto sc = space.materialize({p, 1});
        const auto rep = core::Model(sc.hw).estimate(sc.graph, sc.traffic);
        EXPECT_GT(rep.throughput.capacity.gbps(), 0.0);
    }
}
