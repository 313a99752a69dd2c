#include "lognic/calib/dataset.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "lognic/io/serialize.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/runner/sweep.hpp"

namespace lognic::calib {

io::Json
to_json(const Observation& obs)
{
    io::Json j;
    j.set("label", obs.label);
    j.set("graph_index", static_cast<double>(obs.graph_index));
    j.set("traffic", io::to_json(obs.traffic));
    j.set("throughput_gbps", obs.throughput.gbps());
    j.set("mean_latency_us", obs.mean_latency.micros());
    j.set("p99_latency_us", obs.p99_latency.micros());
    j.set("weight", obs.weight);
    return j;
}

Observation
observation_from_json(const io::Json& j)
{
    Observation obs;
    if (j.contains("label"))
        obs.label = j.at("label").as_string();
    obs.graph_index = io::uint_or<std::size_t>(j, "graph_index", 0);
    obs.traffic = io::traffic_from_json(j.at("traffic"));
    obs.throughput =
        Bandwidth::from_gbps(j.at("throughput_gbps").as_number());
    obs.mean_latency =
        Seconds::from_micros(j.number_or("mean_latency_us", 0.0));
    obs.p99_latency =
        Seconds::from_micros(j.number_or("p99_latency_us", 0.0));
    obs.weight = j.number_or("weight", 1.0);
    if (obs.throughput.bits_per_sec() < 0.0
        || obs.mean_latency.seconds() < 0.0 || obs.weight <= 0.0)
        throw std::runtime_error(
            "observation: negative measurement or non-positive weight");
    return obs;
}

std::size_t
Dataset::add(Observation obs)
{
    observations_.push_back(std::move(obs));
    return observations_.size() - 1;
}

std::pair<Dataset, Dataset>
Dataset::split(double holdout_fraction, std::uint64_t seed) const
{
    if (holdout_fraction < 0.0 || holdout_fraction >= 1.0)
        throw std::invalid_argument(
            "Dataset::split: holdout fraction must be in [0, 1)");
    Dataset train;
    Dataset holdout;
    // Threshold on a per-index hash: membership depends only on
    // (seed, index), so adding observations never reshuffles earlier
    // assignments.
    const auto threshold = static_cast<std::uint64_t>(
        holdout_fraction * 18446744073709551615.0); // 2^64 - 1
    for (std::size_t i = 0; i < observations_.size(); ++i) {
        if (runner::derive_seed(seed, i) < threshold)
            holdout.add(observations_[i]);
        else
            train.add(observations_[i]);
    }
    if (train.empty() && !holdout.empty()) {
        // Degenerate draw: keep at least one training point.
        train.add(holdout.observations().front());
        Dataset rest;
        for (std::size_t i = 1; i < holdout.size(); ++i)
            rest.add(holdout.observation(i));
        holdout = std::move(rest);
    }
    return {std::move(train), std::move(holdout)};
}

std::vector<std::pair<Dataset, Dataset>>
Dataset::k_folds(std::size_t k, std::uint64_t seed) const
{
    if (k < 2 || k > observations_.size())
        throw std::invalid_argument(
            "Dataset::k_folds: need 2 <= k <= size()");
    // Seeded Fisher-Yates permutation, then deal round-robin into folds.
    std::vector<std::size_t> order(observations_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size() - 1; i > 0; --i) {
        const std::size_t pick =
            runner::derive_seed(seed, i) % (i + 1);
        std::swap(order[i], order[pick]);
    }
    std::vector<std::size_t> fold_of(observations_.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos)
        fold_of[order[pos]] = pos % k;

    std::vector<std::pair<Dataset, Dataset>> folds(k);
    // Dataset order is preserved within each fold (iteration is by
    // original index), so fold contents are independent of the shuffle's
    // visit order.
    for (std::size_t f = 0; f < k; ++f) {
        for (std::size_t i = 0; i < observations_.size(); ++i) {
            if (fold_of[i] == f)
                folds[f].second.add(observations_[i]);
            else
                folds[f].first.add(observations_[i]);
        }
    }
    return folds;
}

io::Json
to_json(const Dataset& data)
{
    io::Json arr{io::JsonArray{}};
    for (const auto& obs : data.observations())
        arr.push_back(to_json(obs));
    io::Json j;
    j.set("observations", std::move(arr));
    return j;
}

Dataset
dataset_from_json(const io::Json& j)
{
    Dataset data;
    // Accept either {"observations": [...]} or a bare array.
    const io::JsonArray& arr = j.is_array()
        ? j.as_array()
        : j.at("observations").as_array();
    for (const auto& item : arr)
        data.add(observation_from_json(item));
    return data;
}

Dataset
generate_dataset(const core::HardwareModel& hw,
                 const core::ExecutionGraph& graph,
                 const core::TrafficProfile& base,
                 const GenerationSpec& spec)
{
    if (spec.replications == 0)
        throw std::invalid_argument(
            "generate_dataset: zero replications");

    // Expand the grid, rate-major; an absent axis keeps the base
    // profile's value.
    std::vector<double> rates = spec.rates_gbps;
    if (rates.empty())
        rates.push_back(base.ingress_bandwidth().gbps());
    runner::Sweep sweep;
    const auto add_point = [&](const char* label,
                               core::TrafficProfile traffic) {
        sweep.add(runner::SweepPoint{label, hw, graph, std::move(traffic),
                                     spec.sim});
    };
    for (double rate : rates) {
        if (rate <= 0.0)
            throw std::invalid_argument(
                "generate_dataset: non-positive rate");
        if (spec.packet_sizes_bytes.empty()) {
            auto t = base;
            t.set_ingress_bandwidth(Bandwidth::from_gbps(rate));
            char label[64];
            std::snprintf(label, sizeof label, "%gG/base", rate);
            add_point(label, std::move(t));
            continue;
        }
        for (double size : spec.packet_sizes_bytes) {
            if (size <= 0.0)
                throw std::invalid_argument(
                    "generate_dataset: non-positive packet size");
            char label[64];
            std::snprintf(label, sizeof label, "%gG/%gB", rate, size);
            add_point(label, core::TrafficProfile::fixed(
                                 Bytes{size}, Bandwidth::from_gbps(rate)));
        }
    }
    if (sweep.size() == 0)
        throw std::invalid_argument("generate_dataset: empty grid");

    // One replicated DES campaign per point. Replication r of point p
    // runs under derive_seed(derive_seed(root, p), r), so which thread
    // evaluates a point cannot affect its observation.
    runner::SweepOptions options;
    options.threads = spec.threads;
    options.replications = spec.replications;
    options.root_seed = spec.root_seed;
    Dataset data;
    for (const runner::PointResult& point : sweep.run(options)) {
        Observation obs;
        obs.label = point.label;
        obs.traffic = sweep.point(point.index).traffic;
        obs.throughput =
            Bandwidth::from_gbps(point.stats.delivered_gbps.mean);
        obs.mean_latency =
            Seconds::from_micros(point.stats.mean_latency_us.mean);
        obs.p99_latency =
            Seconds::from_micros(point.stats.p99_latency_us.mean);
        data.add(std::move(obs));
    }
    return data;
}

} // namespace lognic::calib
