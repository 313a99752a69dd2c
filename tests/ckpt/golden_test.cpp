/**
 * @file
 * The checkpoint file format, pinned by fixtures. tests/ckpt/golden/ holds
 * the final generation of four tiny supervised campaigns — a sweep, a
 * check, a calibration, and an exploration — as an earlier version of the
 * supervisor wrote them: a version 2 header line, then the snapshot as
 * record 0. Their journals are older than that format; only the header
 * and the sweep, check and calibration fingerprints (which gained a digest
 * of the campaign's inputs) were rewritten with it. Resuming each fixture
 * must replay every unit, and the generation the resumed campaign
 * publishes at the end must be byte-identical to the fixture: a change to
 * a journal encoding, the payload layout, or a campaign fingerprint fails
 * here first.
 *
 * The campaigns below are the ones the fixtures were written from; they
 * must not change. A deliberate format change bumps kCheckpointVersion
 * and replaces the fixtures.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/calib/dataset.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/dse/supervise.hpp"
#include "../test_helpers.hpp"

#ifndef LOGNIC_CKPT_GOLDEN_DIR
#error "LOGNIC_CKPT_GOLDEN_DIR must point at tests/ckpt/golden"
#endif

namespace lognic::ckpt {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>{});
}

/**
 * A fresh checkpoint directory whose only generation (1) is the @p kind
 * fixture. The destructor removes it.
 */
class GoldenDir {
  public:
    explicit GoldenDir(const std::string& kind)
        : kind_(kind),
          path_((fs::temp_directory_path()
                 / ("lognic_golden_" + kind + "_"
                    + std::to_string(::getpid())))
                    .string()),
          fixture_(slurp(std::string(LOGNIC_CKPT_GOLDEN_DIR) + "/" + kind
                         + ".lnck"))
    {
        fs::remove_all(path_);
        const CheckpointStore store(path_, kind_);
        std::ofstream(store.path_for(1), std::ios::binary) << fixture_;
    }
    ~GoldenDir() { fs::remove_all(path_); }
    GoldenDir(const GoldenDir&) = delete;
    GoldenDir& operator=(const GoldenDir&) = delete;

    SupervisorOptions sup() const
    {
        SupervisorOptions s;
        s.dir = path_;
        return s;
    }

    /// The resumed campaign's final generation is the fixture, byte for
    /// byte, and it is generation 2: nothing but the final flush ran.
    void expect_republished() const
    {
        ASSERT_FALSE(fixture_.empty()) << "missing fixture " << kind_;
        const CheckpointStore store(path_, kind_);
        EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1, 2}));
        EXPECT_TRUE(slurp(store.path_for(2)) == fixture_)
            << kind_ << ": the republished generation differs from "
            << "the fixture";
    }

  private:
    std::string kind_;
    std::string path_;
    std::string fixture_;
};

// --- the campaigns the fixtures were written from -----------------------------

/// One point that simulates and one that fails to construct, twice each.
runner::Sweep
golden_sweep()
{
    const auto hw = test::small_nic();
    runner::Sweep sweep;
    runner::SweepPoint good{"good", hw, test::single_stage_graph(hw),
                            test::mtu_traffic(6.0), {}};
    good.options.duration = sim::SimTime{0.001};
    sweep.add(good);
    runner::SweepPoint bad = good;
    bad.label = "bad";
    bad.graph.vertex(*bad.graph.find_vertex("cores")).params.parallelism = 99;
    sweep.add(bad);
    return sweep;
}

runner::SweepOptions
golden_sweep_options()
{
    runner::SweepOptions so;
    so.replications = 2;
    return so;
}

check::CheckOptions
golden_check()
{
    check::CheckOptions copts;
    copts.trials = 4;
    copts.seed = 11;
    copts.duration = 0.002;
    copts.monotonicity = false;
    copts.minimize = false;
    return copts;
}

struct GoldenCalibration {
    calib::ParameterSpace space;
    calib::Dataset data;
    calib::CalibratorOptions opts;
};

GoldenCalibration
golden_calibration()
{
    const auto hw = test::small_nic();
    const auto graph = test::single_stage_graph(hw);
    calib::GenerationSpec gen;
    gen.rates_gbps = {4.0, 12.0};
    gen.packet_sizes_bytes = {1024.0};
    gen.root_seed = 5;
    gen.sim.duration = 0.001;
    calib::Dataset data =
        calib::generate_dataset(hw, graph, test::mtu_traffic(4.0), gen);
    calib::ParameterSpace space(calib::Candidate{hw, {graph}});
    space.add("ip.cores.fixed_cost_us");
    calib::CalibratorOptions opts;
    opts.fit.starts = 3;
    opts.fit.seed = 5;
    return {std::move(space), std::move(data), opts};
}

/// The NF-chain placement knob alone: 16 evaluations, one DES-validated
/// frontier member.
dse::DesignSpace
golden_space()
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    dse::DesignSpace space(io::Scenario{
        std::move(built.hw), std::move(built.graph),
        core::TrafficProfile::fixed(Bytes{1500.0},
                                    Bandwidth::from_gbps(50.0))});
    space.add("placement.nf_chain", {});
    return space;
}

std::vector<dse::ObjectiveSpec>
golden_objectives()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

dse::ExploreOptions
golden_explore_options()
{
    dse::ExploreOptions opts;
    opts.des.replications = 1;
    opts.des.duration = 0.001;
    return opts;
}

// --- resume each fixture, republish it byte-identically -----------------------

TEST(GoldenCheckpoint, SweepFixtureResumesAndRepublishesUnchanged)
{
    const GoldenDir dir("sweep");
    const SupervisedSweep out =
        supervise_sweep(golden_sweep(), golden_sweep_options(), dir.sup());
    EXPECT_TRUE(out.resume.resumed);
    EXPECT_EQ(out.resume.completed, 4u);
    EXPECT_EQ(out.report.failed.size(), 1u);
    dir.expect_republished();
}

TEST(GoldenCheckpoint, CheckFixtureResumesAndRepublishesUnchanged)
{
    const GoldenDir dir("check");
    const SupervisedCheck out = supervise_check(golden_check(), {}, dir.sup());
    EXPECT_TRUE(out.resume.resumed);
    EXPECT_EQ(out.resume.completed, 4u);
    EXPECT_EQ(out.report.trials, 4u);
    dir.expect_republished();
}

TEST(GoldenCheckpoint, CalibrationFixtureResumesAndRepublishesUnchanged)
{
    const GoldenDir dir("calib");
    GoldenCalibration c = golden_calibration();
    const SupervisedCalibration out = supervise_calibration(
        std::move(c.space), std::move(c.data), c.opts, dir.sup());
    EXPECT_TRUE(out.resume.resumed);
    EXPECT_EQ(out.resume.completed, 3u);
    dir.expect_republished();
}

TEST(GoldenCheckpoint, ExplorationFixtureResumesAndRepublishesUnchanged)
{
    const GoldenDir dir(dse::kExploreCheckpointKind);
    const dse::SupervisedExploration out = dse::supervise_exploration(
        golden_space(), golden_objectives(), {}, golden_explore_options(),
        dir.sup());
    EXPECT_TRUE(out.resume.resumed);
    EXPECT_EQ(out.resume.completed, 17u); // 16 evaluations + 1 DES
    dir.expect_republished();
}

} // namespace
} // namespace lognic::ckpt
