/**
 * @file
 * google-benchmark microbenchmarks of the model itself: how fast are
 * throughput estimation, latency estimation, path enumeration, an
 * exhaustive dse case study (the E3 allocation search), and a simulator
 * step. These quantify the paper's "without actually deploying the
 * program" value proposition — a model evaluation must be orders of
 * magnitude cheaper than an experiment.
 */
#include <benchmark/benchmark.h>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/solver/special.hpp"

using namespace lognic;

namespace {

const auto kScenario =
    apps::make_inline_accel(devices::LiquidIoKernel::kMd5, 12);
const auto kTraffic = core::TrafficProfile::fixed(
    Bytes{1500.0}, Bandwidth::from_gbps(25.0));

void
BM_ThroughputEstimate(benchmark::State& state)
{
    const core::Model model(kScenario.hw);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.throughput(kScenario.graph, kTraffic));
    }
}
BENCHMARK(BM_ThroughputEstimate);

void
BM_LatencyEstimate(benchmark::State& state)
{
    const core::Model model(kScenario.hw);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.latency(kScenario.graph, kTraffic));
    }
}
BENCHMARK(BM_LatencyEstimate);

void
BM_FullEstimate(benchmark::State& state)
{
    const core::Model model(kScenario.hw);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.estimate(kScenario.graph, kTraffic));
    }
}
BENCHMARK(BM_FullEstimate);

void
BM_PathEnumeration(benchmark::State& state)
{
    const auto sc = apps::make_panic_hybrid(0.5, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sc.graph.enumerate_paths());
    }
}
BENCHMARK(BM_PathEnumeration);

void
BM_GraphValidation(benchmark::State& state)
{
    for (auto _ : state) {
        kScenario.graph.validate(kScenario.hw);
    }
}
BENCHMARK(BM_GraphValidation);

void
BM_MicroserviceOptimizer(benchmark::State& state)
{
    const auto traffic = core::TrafficProfile::fixed(
        apps::e3_request_size(), Bandwidth::from_gbps(5.0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dse::lognic_opt_alloc(apps::E3Workload::kRtaShm, traffic));
    }
}
BENCHMARK(BM_MicroserviceOptimizer);

void
BM_ScenarioSerializeRoundTrip(benchmark::State& state)
{
    const io::Scenario scenario{kScenario.hw, kScenario.graph, kTraffic};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            io::load_scenario(io::save_scenario(scenario)));
    }
}
BENCHMARK(BM_ScenarioSerializeRoundTrip);

void
BM_TailQuantile(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            solver::gamma_quantile(3.7, 1.3e-6, 0.99));
    }
}
BENCHMARK(BM_TailQuantile);

void
BM_SimulatorMillisecond(benchmark::State& state)
{
    for (auto _ : state) {
        sim::SimOptions opts;
        opts.duration = 0.001;
        benchmark::DoNotOptimize(
            sim::simulate(kScenario.hw, kScenario.graph, kTraffic, opts));
    }
}
BENCHMARK(BM_SimulatorMillisecond);

/**
 * The observability overhead contract, measured: BM_SimulatorMillisecond
 * above is the tracing-disabled baseline (TraceOptions.sink == nullptr,
 * the default — the hot path pays one null-pointer test per hook).
 * The variants below attach a ChromeTraceWriter with full sampling and
 * with every-64th-packet sampling; comparing them against the baseline
 * quantifies the opt-in cost. The disabled path must stay within 2% of
 * the pre-observability simulator.
 */
void
BM_SimulatorMillisecondTraced(benchmark::State& state)
{
    const auto sample = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        obs::ChromeTraceWriter writer;
        sim::SimOptions opts;
        opts.duration = 0.001;
        opts.trace.sink = &writer;
        opts.trace.sample_every = sample;
        benchmark::DoNotOptimize(
            sim::simulate(kScenario.hw, kScenario.graph, kTraffic, opts));
        benchmark::DoNotOptimize(writer.event_count());
    }
}
BENCHMARK(BM_SimulatorMillisecondTraced)->Arg(1)->Arg(64);

void
BM_SeedDerivation(benchmark::State& state)
{
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(runner::derive_seed(42, i++));
}
BENCHMARK(BM_SeedDerivation);

/**
 * 8 independent replications of a 0.5 ms run aggregated with CIs, at 1, 2,
 * and 4 pool threads — the runner's core fan-out path. Results are
 * identical across the Arg values; only wall-clock changes.
 */
void
BM_ReplicatedSimulation(benchmark::State& state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const runner::Replicator rep(8, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rep.run(
            [](std::uint64_t seed) {
                sim::SimOptions opts;
                opts.duration = 0.0005;
                opts.seed = seed;
                return sim::simulate(kScenario.hw, kScenario.graph,
                                     kTraffic, opts);
            },
            threads));
    }
}
BENCHMARK(BM_ReplicatedSimulation)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
