/**
 * @file
 * Dataset: JSON round-trips, deterministic splitting/folding, and
 * thread-count-invariant DES generation.
 */
#include <gtest/gtest.h>

#include <set>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/calib/dataset.hpp"

namespace lognic::calib {
namespace {

Observation
sample_observation(const std::string& label, double gbps)
{
    Observation obs;
    obs.label = label;
    obs.traffic = core::TrafficProfile::fixed(Bytes{512},
                                              Bandwidth::from_gbps(gbps));
    obs.throughput = Bandwidth::from_gbps(0.9 * gbps);
    obs.mean_latency = Seconds::from_micros(12.5);
    obs.p99_latency = Seconds::from_micros(40.0);
    obs.weight = 2.0;
    return obs;
}

Dataset
sample_dataset(std::size_t n)
{
    Dataset data;
    for (std::size_t i = 0; i < n; ++i)
        data.add(sample_observation("obs-" + std::to_string(i),
                                    1.0 + static_cast<double>(i)));
    return data;
}

TEST(CalibDataset, ObservationRoundTripsThroughJson)
{
    const Observation obs = sample_observation("p42", 7.5);
    const Observation back = observation_from_json(to_json(obs));
    EXPECT_EQ(back.label, "p42");
    EXPECT_EQ(back.graph_index, 0u);
    EXPECT_NEAR(back.throughput.gbps(), obs.throughput.gbps(), 1e-9);
    EXPECT_NEAR(back.mean_latency.micros(), 12.5, 1e-9);
    EXPECT_NEAR(back.p99_latency.micros(), 40.0, 1e-9);
    EXPECT_NEAR(back.weight, 2.0, 1e-12);
    EXPECT_NEAR(back.traffic.ingress_bandwidth().gbps(), 7.5, 1e-9);
}

TEST(CalibDataset, ObservationRejectsNonPositiveWeight)
{
    io::Json j = to_json(sample_observation("bad", 1.0));
    j.set("weight", 0.0);
    EXPECT_THROW(observation_from_json(j), std::runtime_error);
}

TEST(CalibDataset, ObservationRejectsNonIndexGraphIndex)
{
    io::Json j = to_json(sample_observation("bad", 1.0));
    j.set("graph_index", 1.5);
    EXPECT_THROW(observation_from_json(j), std::runtime_error);
    j.set("graph_index", -1.0);
    EXPECT_THROW(observation_from_json(j), std::runtime_error);
}

TEST(CalibDataset, DatasetRoundTripsThroughJson)
{
    const Dataset data = sample_dataset(5);
    const Dataset back = dataset_from_json(to_json(data));
    ASSERT_EQ(back.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(back.observation(i).label, data.observation(i).label);
        // The seconds<->micros conversion may cost a ULP per trip, so
        // compare values, not bytes.
        EXPECT_NEAR(back.observation(i).mean_latency.micros(),
                    data.observation(i).mean_latency.micros(), 1e-9);
        EXPECT_NEAR(back.observation(i).throughput.gbps(),
                    data.observation(i).throughput.gbps(), 1e-12);
    }
    // Serializing the same dataset twice is byte-identical (the property
    // the cross-thread determinism contract leans on).
    EXPECT_EQ(to_json(data).dump(), to_json(data).dump());
}

TEST(CalibDataset, SplitIsDeterministicAndCoversEverything)
{
    const Dataset data = sample_dataset(40);
    const auto [train_a, hold_a] = data.split(0.3, 99);
    const auto [train_b, hold_b] = data.split(0.3, 99);
    EXPECT_EQ(to_json(train_a).dump(), to_json(train_b).dump());
    EXPECT_EQ(to_json(hold_a).dump(), to_json(hold_b).dump());
    EXPECT_EQ(train_a.size() + hold_a.size(), data.size());
    EXPECT_GE(train_a.size(), 1u);
    EXPECT_GE(hold_a.size(), 1u); // 40 draws at 30% — vanishing miss odds

    // Membership is disjoint.
    std::set<std::string> seen;
    for (const auto& o : train_a.observations())
        EXPECT_TRUE(seen.insert(o.label).second);
    for (const auto& o : hold_a.observations())
        EXPECT_TRUE(seen.insert(o.label).second);
    EXPECT_EQ(seen.size(), data.size());
}

TEST(CalibDataset, SplitZeroFractionKeepsEverythingInTrain)
{
    const Dataset data = sample_dataset(6);
    const auto [train, hold] = data.split(0.0, 1);
    EXPECT_EQ(train.size(), 6u);
    EXPECT_TRUE(hold.empty());
}

TEST(CalibDataset, SplitRejectsOutOfRangeFractions)
{
    const Dataset data = sample_dataset(4);
    EXPECT_THROW(data.split(-0.1, 1), std::invalid_argument);
    EXPECT_THROW(data.split(1.0, 1), std::invalid_argument);
}

TEST(CalibDataset, KFoldsPartitionValidationSetsExactly)
{
    const Dataset data = sample_dataset(11);
    const auto folds = data.k_folds(3, 7);
    ASSERT_EQ(folds.size(), 3u);
    std::set<std::string> validated;
    for (const auto& [train, validation] : folds) {
        EXPECT_EQ(train.size() + validation.size(), data.size());
        for (const auto& o : validation.observations())
            EXPECT_TRUE(validated.insert(o.label).second)
                << o.label << " validated twice";
    }
    EXPECT_EQ(validated.size(), data.size());

    // Same seed, same folds.
    const auto again = data.k_folds(3, 7);
    for (std::size_t f = 0; f < folds.size(); ++f)
        EXPECT_EQ(to_json(folds[f].second).dump(),
                  to_json(again[f].second).dump());
}

TEST(CalibDataset, KFoldsRejectsDegenerateCounts)
{
    const Dataset data = sample_dataset(5);
    EXPECT_THROW(data.k_folds(1, 1), std::invalid_argument);
    EXPECT_THROW(data.k_folds(6, 1), std::invalid_argument);
}

TEST(CalibDataset, GenerateIsBitIdenticalAcrossThreadCounts)
{
    const auto sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 4);
    const core::TrafficProfile base = core::TrafficProfile::fixed(
        Bytes{512}, Bandwidth::from_gbps(2.0));

    GenerationSpec spec;
    spec.rates_gbps = {1.0, 2.0, 4.0};
    spec.packet_sizes_bytes = {256.0, 1024.0};
    spec.replications = 2;
    spec.root_seed = 5;
    spec.sim.duration = 0.001;

    spec.threads = 1;
    const Dataset serial = generate_dataset(sc.hw, sc.graph, base, spec);
    spec.threads = 8;
    const Dataset parallel = generate_dataset(sc.hw, sc.graph, base, spec);

    ASSERT_EQ(serial.size(), 6u);
    EXPECT_EQ(to_json(serial).dump(), to_json(parallel).dump());
    for (const auto& obs : serial.observations()) {
        EXPECT_GT(obs.throughput.gbps(), 0.0) << obs.label;
        EXPECT_GT(obs.mean_latency.seconds(), 0.0) << obs.label;
    }
}

TEST(CalibDataset, GenerateKeepsBaseProfileWhenAxesAreEmpty)
{
    const auto sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 4);
    const core::TrafficProfile base = core::TrafficProfile::fixed(
        Bytes{512}, Bandwidth::from_gbps(2.0));

    GenerationSpec spec;
    spec.sim.duration = 0.001;
    const Dataset data = generate_dataset(sc.hw, sc.graph, base, spec);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_NEAR(data.observation(0).traffic.ingress_bandwidth().gbps(),
                2.0, 1e-12);
}

TEST(CalibDataset, GenerateRejectsBadSpecs)
{
    const auto sc =
        apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 4);
    const core::TrafficProfile base;

    GenerationSpec spec;
    spec.replications = 0;
    EXPECT_THROW(generate_dataset(sc.hw, sc.graph, base, spec),
                 std::invalid_argument);

    spec.replications = 1;
    spec.rates_gbps = {-1.0};
    EXPECT_THROW(generate_dataset(sc.hw, sc.graph, base, spec),
                 std::invalid_argument);

    spec.rates_gbps = {1.0};
    spec.packet_sizes_bytes = {0.0};
    EXPECT_THROW(generate_dataset(sc.hw, sc.graph, base, spec),
                 std::invalid_argument);
}

} // namespace
} // namespace lognic::calib
