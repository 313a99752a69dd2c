#include "lognic/runner/sweep.hpp"

#include <gtest/gtest.h>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/io/serialize.hpp"
#include "../test_helpers.hpp"

namespace lognic::runner {
namespace {

io::Scenario
tiny_scenario()
{
    auto sc = apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 4);
    return io::Scenario{std::move(sc.hw), std::move(sc.graph),
                        core::TrafficProfile::fixed(
                            Bytes{1024.0}, Bandwidth::from_gbps(10.0))};
}

TEST(SweepSpec, ParsesGridAndRunnerKnobs)
{
    const std::string doc = sample_sweep_spec(tiny_scenario());
    const auto spec = sweep_spec_from_json(io::Json::parse(doc));
    EXPECT_EQ(spec.rates_gbps, (std::vector<double>{5.0, 12.0}));
    EXPECT_TRUE(spec.packet_sizes_bytes.empty());
    EXPECT_EQ(spec.options.replications, 2u);
    EXPECT_EQ(spec.options.threads, 2u);
    EXPECT_EQ(spec.options.root_seed, 42u);
    EXPECT_DOUBLE_EQ(spec.sim.duration, 0.002);
}

TEST(SweepSpec, RejectsMalformedDocuments)
{
    EXPECT_THROW(sweep_spec_from_json(io::Json::parse("{}")),
                 std::runtime_error);
    EXPECT_THROW(sweep_spec_from_json(io::Json::parse("[1,2]")),
                 std::runtime_error);
}

TEST(SweepSpec, RejectsFractionalAndNegativeCounts)
{
    const io::Json doc =
        io::Json::parse(sample_sweep_spec(tiny_scenario()));
    const auto with = [&doc](const std::string& key, io::Json value) {
        io::JsonObject sw = doc.at("sweep").as_object();
        sw[key] = std::move(value);
        io::JsonObject root = doc.as_object();
        root["sweep"] = io::Json(std::move(sw));
        return io::Json(std::move(root));
    };
    // -1 replications used to reach std::vector as 2^64 - 1; a fractional
    // thread count and a negative seed were accepted silently.
    EXPECT_THROW(sweep_spec_from_json(with("replications", -1.0)),
                 std::runtime_error);
    EXPECT_THROW(sweep_spec_from_json(with("threads", 2.7)),
                 std::runtime_error);
    EXPECT_THROW(sweep_spec_from_json(with("root_seed", -5.0)),
                 std::runtime_error);
    EXPECT_THROW(sweep_spec_from_json(with("max_sim_events", 0.5)),
                 std::runtime_error);
    EXPECT_EQ(sweep_spec_from_json(with("root_seed", "0xa6531e5b0f3ddcfe"))
                  .options.root_seed,
              0xa6531e5b0f3ddcfeULL);
}

TEST(SweepSpec, GridIsCartesianProduct)
{
    auto spec = sweep_spec_from_json(
        io::Json::parse(sample_sweep_spec(tiny_scenario())));
    spec.packet_sizes_bytes = {256.0, 1024.0, 4096.0};
    const auto sweep = build_sweep(spec);
    EXPECT_EQ(sweep.size(), 6u); // 3 sizes x 2 rates
    EXPECT_EQ(sweep.point(0).label, "size=256B,rate=5Gbps");
    EXPECT_EQ(sweep.point(5).label, "size=4096B,rate=12Gbps");
}

TEST(Sweep, RunAggregatesPerPoint)
{
    const auto spec = sweep_spec_from_json(
        io::Json::parse(sample_sweep_spec(tiny_scenario())));
    const auto sweep = build_sweep(spec);
    const auto results = sweep.run(spec.options);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& pr : results) {
        EXPECT_EQ(pr.stats.replications, 2u);
        EXPECT_EQ(pr.stats.seeds.size(), 2u);
        EXPECT_EQ(pr.stats.degenerate, 0u);
        EXPECT_GT(pr.stats.delivered_gbps.mean, 0.0);
        EXPECT_GT(pr.stats.mean_latency_us.mean, 0.0);
    }
    // Offering more load delivers at least as much traffic.
    EXPECT_GE(results[1].stats.delivered_gbps.mean,
              results[0].stats.delivered_gbps.mean - 1e-9);
}

TEST(Sweep, ResultsSerializeToJson)
{
    const auto spec = sweep_spec_from_json(
        io::Json::parse(sample_sweep_spec(tiny_scenario())));
    const auto results = build_sweep(spec).run(spec.options);
    const io::Json doc = sweep_results_json(results);
    ASSERT_TRUE(doc.is_object());
    const auto& points = doc.at("points").as_array();
    ASSERT_EQ(points.size(), 2u);
    for (const auto& p : points) {
        EXPECT_TRUE(p.contains("label"));
        EXPECT_TRUE(p.contains("seeds"));
        EXPECT_TRUE(p.at("delivered_gbps").contains("ci95"));
        // uint64 seeds travel as hex strings, not lossy doubles.
        EXPECT_TRUE(p.at("seeds").as_array().at(0).is_string());
        // The aggregated metrics snapshot rides along: replication-summed
        // counters and the cross-replication latency histogram.
        ASSERT_TRUE(p.contains("metrics"));
        const io::Json& m = p.at("metrics");
        EXPECT_GT(m.at("counters").at("sim.completed").as_number(), 0.0);
        EXPECT_TRUE(m.at("histograms").contains("sim.latency_us"));
    }
    // Round-trips through the parser.
    const io::Json reparsed = io::Json::parse(doc.dump());
    EXPECT_EQ(reparsed.at("points").as_array().size(), 2u);
}

/// Four points: two healthy, one whose simulator construction throws
/// (impossible parallelism), one the event-budget watchdog truncates.
Sweep
mixed_health_sweep()
{
    const auto hw = test::small_nic();
    Sweep sweep;
    for (int i = 0; i < 4; ++i) {
        SweepPoint pt{"p" + std::to_string(i), hw,
                      test::single_stage_graph(hw),
                      test::mtu_traffic(4.0 + i), {}};
        pt.options.duration = 0.004;
        if (i == 1)
            pt.graph.vertex(*pt.graph.find_vertex("cores"))
                .params.parallelism = 99; // > max_engines: throws
        if (i == 2) {
            pt.options.watchdog.max_events = 1500; // truncates mid-run
            // No warmup, so the partial window still measures something.
            pt.options.warmup_fraction = 0.0;
        }
        sweep.add(pt);
    }
    return sweep;
}

// The acceptance scenario: a campaign with one throwing and one
// watchdog-limited point completes, returns results for every point that
// produced data, and reports exactly one FailedPoint and exactly one
// TruncationRecord — identically for any thread count.
TEST(SweepGuarded, IsolatesFailuresAndTruncations)
{
    const Sweep sweep = mixed_health_sweep();
    SweepOptions so;
    so.replications = 1;
    so.max_retries = 1;

    std::vector<SweepReport> reports;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
        so.threads = threads;
        reports.push_back(sweep.run_guarded(so));
    }

    const SweepReport& rep = reports.front();
    EXPECT_FALSE(rep.complete());

    ASSERT_EQ(rep.failed.size(), 1u);
    EXPECT_EQ(rep.failed[0].index, 1u);
    EXPECT_EQ(rep.failed[0].label, "p1");
    EXPECT_EQ(rep.failed[0].attempts, 2u); // initial + 1 retry
    EXPECT_FALSE(rep.failed[0].error.empty());

    ASSERT_EQ(rep.truncated.size(), 1u);
    EXPECT_EQ(rep.truncated[0].index, 2u);
    EXPECT_EQ(rep.truncated[0].label, "p2");
    EXPECT_EQ(rep.truncated[0].reason, "event_budget");
    EXPECT_GT(rep.truncated[0].sim_time_reached, 0.0);
    EXPECT_LT(rep.truncated[0].sim_time_reached, 0.004);

    // The failed point is excluded; the truncated one still yields (partial)
    // aggregates alongside the two healthy points.
    ASSERT_EQ(rep.results.size(), 3u);
    EXPECT_EQ(rep.results[0].label, "p0");
    EXPECT_EQ(rep.results[1].label, "p2");
    EXPECT_EQ(rep.results[2].label, "p3");
    for (const auto& pr : rep.results)
        EXPECT_GT(pr.stats.delivered_gbps.mean, 0.0);

    // Bit-identical across thread counts.
    for (std::size_t r = 1; r < reports.size(); ++r) {
        const SweepReport& other = reports[r];
        ASSERT_EQ(other.results.size(), rep.results.size());
        for (std::size_t i = 0; i < rep.results.size(); ++i) {
            EXPECT_EQ(other.results[i].label, rep.results[i].label);
            EXPECT_EQ(other.results[i].stats.seeds,
                      rep.results[i].stats.seeds);
            EXPECT_EQ(other.results[i].stats.delivered_gbps.mean,
                      rep.results[i].stats.delivered_gbps.mean);
        }
        ASSERT_EQ(other.failed.size(), 1u);
        EXPECT_EQ(other.failed[0].seed, rep.failed[0].seed);
        ASSERT_EQ(other.truncated.size(), 1u);
        EXPECT_EQ(other.truncated[0].sim_time_reached,
                  rep.truncated[0].sim_time_reached);
    }
}

TEST(SweepGuarded, RunFailsFastOnTheSameCampaign)
{
    const Sweep sweep = mixed_health_sweep();
    SweepOptions so;
    so.threads = 2;
    // run() is the fail-fast view: the underlying validation error
    // resurfaces unchanged instead of being converted to a record.
    EXPECT_THROW(sweep.run(so), std::invalid_argument);
}

TEST(SweepGuarded, RetriesRederiveSeedsDeterministically)
{
    // A healthy sweep must produce identical results whether or not retry
    // budget exists (attempt 0 always keeps the classic derived seed).
    const auto spec = sweep_spec_from_json(
        io::Json::parse(sample_sweep_spec(tiny_scenario())));
    const auto sweep = build_sweep(spec);
    SweepOptions with_retries = spec.options;
    with_retries.max_retries = 3;
    const auto a = sweep.run_guarded(spec.options);
    const auto b = sweep.run_guarded(with_retries);
    EXPECT_TRUE(a.complete());
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].stats.seeds, b.results[i].stats.seeds);
        EXPECT_EQ(a.results[i].stats.delivered_gbps.mean,
                  b.results[i].stats.delivered_gbps.mean);
    }
}

TEST(SweepGuarded, ReportSerializesToJson)
{
    const Sweep sweep = mixed_health_sweep();
    SweepOptions so;
    so.threads = 2;
    const auto report = sweep.run_guarded(so);
    const io::Json doc = to_json(report);

    // Consumers of the unguarded format keep working: same "points" array.
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("points").as_array().size(), report.results.size());
    EXPECT_FALSE(doc.at("complete").as_bool());

    const auto& failed = doc.at("failed").as_array();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].at("label").as_string(), "p1");
    EXPECT_DOUBLE_EQ(failed[0].at("attempts").as_number(), 1.0);
    EXPECT_TRUE(failed[0].at("seed").is_string()); // hex, not lossy double
    EXPECT_FALSE(failed[0].at("error").as_string().empty());

    const auto& truncated = doc.at("truncated").as_array();
    ASSERT_EQ(truncated.size(), 1u);
    EXPECT_EQ(truncated[0].at("reason").as_string(), "event_budget");
    EXPECT_GT(truncated[0].at("sim_time_reached").as_number(), 0.0);

    // Round-trips through the parser.
    const io::Json reparsed = io::Json::parse(doc.dump());
    EXPECT_EQ(reparsed.at("failed").as_array().size(), 1u);
}

TEST(SweepSpec, ParsesGuardRailKnobs)
{
    auto base = tiny_scenario();
    io::Json doc = io::Json::parse(sample_sweep_spec(base));
    io::JsonObject root = doc.as_object();
    io::JsonObject sw = root.at("sweep").as_object();
    sw.emplace("max_retries", io::Json(2.0));
    sw.emplace("max_sim_events", io::Json(50000.0));
    sw.emplace("deadline_seconds", io::Json(10.0));
    sw.emplace("faults", io::Json::parse(
        R"([{"at": 0.001, "kind": "slowdown", "target": "cores",
             "factor": 2.0}])"));
    root["sweep"] = io::Json(std::move(sw));

    const auto spec = sweep_spec_from_json(io::Json(std::move(root)));
    EXPECT_EQ(spec.options.max_retries, 2u);
    EXPECT_EQ(spec.sim.watchdog.max_events, 50000u);
    EXPECT_DOUBLE_EQ(spec.sim.watchdog.wall_clock_seconds, 10.0);
    ASSERT_EQ(spec.sim.faults.events.size(), 1u);
    EXPECT_EQ(spec.sim.faults.events[0].target, "cores");

    // Negative guard-rail values are rejected.
    io::JsonObject bad_sw = doc.at("sweep").as_object();
    bad_sw.emplace("max_retries", io::Json(-1.0));
    io::JsonObject bad_root = doc.as_object();
    bad_root["sweep"] = io::Json(std::move(bad_sw));
    EXPECT_THROW(sweep_spec_from_json(io::Json(std::move(bad_root))),
                 std::runtime_error);
}

} // namespace
} // namespace lognic::runner
