/**
 * @file
 * Deterministic fuzzing of the spec loaders: json_fuzz_test's byte and
 * digit mutations, applied to the documents an operator hands `lognic
 * sweep`, `explore`, `calibrate`, `check --corpus` and `simulate
 * --faults`. Every mutant either loads or throws a std::exception that
 * says why — never crashes, hangs, or corrupts memory (the sanitizer job
 * runs io_tests under ASan/UBSan).
 */
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "../test_helpers.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "mutate.hpp"

namespace lognic::io {
namespace {

struct Outcomes {
    int loaded{0};
    int rejected{0};
};

template <class Load>
void
load_mutant(const std::string& doc, const Load& load, Outcomes& outcomes)
{
    try {
        load(Json::parse(doc));
        ++outcomes.loaded;
    } catch (const std::exception& e) {
        EXPECT_STRNE(e.what(), "") << doc;
        ++outcomes.rejected;
    }
}

/// 300 rounds of byte mutations, then 300 of digit mutations, of @p base.
template <class Load>
void
fuzz_loader(const std::string& base, const Load& load)
{
    ASSERT_NO_THROW(load(Json::parse(base)));
    std::mt19937_64 rng(2024);
    Outcomes bytes;
    for (int round = 0; round < 300; ++round) {
        std::string doc = base;
        test::mutate_bytes(doc, 1 + round % 8, rng);
        load_mutant(doc, load, bytes);
    }
    Outcomes digits;
    for (int round = 0; round < 300; ++round) {
        std::string doc = base;
        test::mutate_digit(doc, rng);
        load_mutant(doc, load, digits);
    }
    EXPECT_GT(bytes.rejected, 0);  // mutations do break documents
    EXPECT_GT(digits.loaded, 0);   // and the loaders see what survives
    EXPECT_GT(digits.rejected, 0);
}

Scenario
base_scenario(Bandwidth line_rate = Bandwidth::from_gbps(25.0))
{
    const core::HardwareModel hw = test::small_nic(line_rate);
    return Scenario{hw, test::two_stage_graph(hw), test::mtu_traffic(0.5)};
}

TEST(SpecFuzz, SweepSpecLoadsOrThrows)
{
    fuzz_loader(runner::sample_sweep_spec(base_scenario()),
                [](const Json& j) { (void)runner::sweep_spec_from_json(j); });
}

TEST(SpecFuzz, ExploreSpecLoadsOrThrows)
{
    fuzz_loader(dse::sample_explore_spec(),
                [](const Json& j) { (void)dse::explore_spec_from_json(j); });
}

TEST(SpecFuzz, CalibSpecLoadsOrThrows)
{
    // The loader runs the spec's DES synthesis (8 runs of 2 ms); a 1 Gbps
    // line keeps each run under a thousand packets, so the 600 mutants
    // stay cheap under the sanitizers too.
    fuzz_loader(
        calib::sample_calib_spec(base_scenario(Bandwidth::from_gbps(1.0))),
        [](const Json& j) { (void)calib::calib_spec_from_json(j); });
}

TEST(SpecFuzz, CorpusEntryLoadsOrThrows)
{
    const check::CorpusEntry entry{
        "fuzz", check::generate_scenario(11).scenario, {}, true};
    fuzz_loader(check::to_json(entry).dump(2), [](const Json& j) {
        (void)check::corpus_entry_from_json(j);
    });
}

TEST(SpecFuzz, FaultPlanLoadsOrThrows)
{
    // A plan that loads also runs: 30 ms (the sample plan's span) of 1 KiB
    // packets at 1 Gb/s through cores -> crypto, the vertices it names.
    const core::HardwareModel hw = test::small_nic();
    core::ExecutionGraph g("fuzz-offload");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto cores = g.add_ip_vertex("cores", *hw.find_ip("cores"));
    const auto crypto = g.add_ip_vertex("crypto", *hw.find_ip("accel"));
    g.add_edge(in, cores);
    g.add_edge(cores, crypto, core::EdgeParams{1.0, 0.0, 1.0, {}});
    g.add_edge(crypto, out);
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{1024.0}, Bandwidth::from_gbps(1.0));
    fuzz_loader(fault::sample_fault_plan(), [&](const Json& j) {
        sim::SimOptions o;
        o.duration = 0.03;
        o.faults = fault::fault_plan_from_json(j);
        (void)sim::simulate(hw, g, traffic, o);
    });
}

} // namespace
} // namespace lognic::io
