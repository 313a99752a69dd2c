/**
 * @file
 * PANIC Model 1 ("Pipelined Chain", case study #5) on the simulator's
 * credit window: credits bound each unit's in-flight window, the bounded
 * scheduler buffer sheds overload, a traced run keeps every credit
 * counter inside the window, and the simulated window agrees with the
 * analytic credit-window capacity. The suite names predate the chain's
 * move onto NicSimulator and are kept so the test IDs stay stable.
 */
#include "lognic/apps/panic_models.hpp"

#include <gtest/gtest.h>

#include "lognic/devices/panic_proto.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::sim {
namespace {

using apps::PanicScenario;

PanicScenario
one_unit_chain(std::uint32_t credits,
               Seconds fixed = Seconds::from_nanos(100.0),
               Bandwidth stream = Bandwidth::from_gbps(100.0))
{
    return apps::make_panic_chain({devices::panic_unit_ip("u", fixed, stream)},
                                  credits);
}

SimOptions
quick()
{
    SimOptions o;
    o.duration = 0.01;
    o.seed = 3;
    return o;
}

core::TrafficProfile
fixed(double bytes, double gbps)
{
    return core::TrafficProfile::fixed(Bytes{bytes},
                                       Bandwidth::from_gbps(gbps));
}

SimResult
run(const PanicScenario& sc, const core::TrafficProfile& traffic,
    const SimOptions& options = quick())
{
    return simulate(sc.hw, sc.graph, traffic, options);
}

TEST(PanicSim, NoDropsBelowCapacity)
{
    // Unit capacity ~29 Gbps (141 ns per 512 B packet); at 15 Gbps the
    // bounded scheduler buffer never overflows.
    const auto res = run(one_unit_chain(4), fixed(512.0, 15.0));
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_GT(res.completed, 0u);
}

TEST(PanicSim, ShedsLoadWhenSchedulerBufferFills)
{
    const auto res = run(one_unit_chain(4), fixed(512.0, 60.0));
    EXPECT_GT(res.drop_rate, 0.2);
    // The sheds happen in the unit's held FIFO, charged to the unit.
    EXPECT_GT(res.metrics.counter_or_zero("vertex.u.dropped"), 0u);
    EXPECT_EQ(res.metrics.counter_or_zero("vertex.rmt.dropped"), 0u);
}

TEST(PanicSim, ThroughputMonotoneInCredits)
{
    // Overloaded unit: more credits -> larger window -> more throughput,
    // saturating at the unit's compute capacity.
    double prev = 0.0;
    for (std::uint32_t credits : {1u, 2u, 4u, 8u}) {
        const auto res = run(one_unit_chain(credits), fixed(512.0, 60.0));
        EXPECT_GE(res.delivered.gbps(), prev - 0.5);
        prev = res.delivered.gbps();
    }
    EXPECT_GT(prev, 20.0);
}

TEST(PanicSim, LatencyGrowsWithCredits)
{
    // Under overload, once credits exceed the window knee they only add
    // buffering (queueing delay) — the Figure 15 takeaway ("fewer credits
    // reduce the latency").
    const auto low = run(one_unit_chain(2), fixed(512.0, 60.0));
    const auto high = run(one_unit_chain(8), fixed(512.0, 60.0));
    EXPECT_GT(high.mean_latency.seconds(), low.mean_latency.seconds());
}

TEST(PanicSim, ChainTraversesAllUnits)
{
    std::vector<core::IpSpec> units;
    for (int i = 0; i < 3; ++i)
        units.push_back(devices::panic_unit_ip(
            "u" + std::to_string(i), Seconds::from_nanos(200.0),
            Bandwidth::from_gbps(100.0)));
    const auto sc = apps::make_panic_chain(std::move(units), 8);
    const auto res = run(sc, fixed(256.0, 1.0));
    // Light load: latency ~ rmt + 4 fabric traversals + 3 services.
    const double service_ns = 200.0 + 256.0 * 8.0 / 100.0;
    const core::Vertex& rmt = sc.graph.vertex(*sc.graph.find_vertex("rmt"));
    const double hop_ns =
        rmt.params.overhead.nanos() + 256.0 * 8.0 / 100.0;
    const double rmt_ns =
        sc.hw.ip(rmt.ip).roofline.engine().service_time(Bytes{256.0}).nanos();
    const double expected_ns = rmt_ns + 4.0 * hop_ns + 3.0 * service_ns;
    EXPECT_NEAR(res.mean_latency.nanos(), expected_ns, 0.25 * expected_ns);
}

TEST(PanicSim, RejectsBadConfigs)
{
    EXPECT_THROW(apps::make_panic_chain({}, 4), std::invalid_argument);
    EXPECT_THROW(one_unit_chain(0), std::invalid_argument);

    // A credit window belongs to an IP vertex: graph validation (and so
    // the simulator) rejects one on ingress, egress, or a rate limiter.
    const auto traffic = fixed(512.0, 1.0);
    auto on_ingress = one_unit_chain(4);
    on_ingress.graph.vertex(on_ingress.graph.ingress_vertices()[0])
        .params.credits = 1;
    EXPECT_THROW(on_ingress.graph.validate(on_ingress.hw),
                 std::invalid_argument);
    EXPECT_THROW(run(on_ingress, traffic), std::invalid_argument);

    auto on_egress = one_unit_chain(4);
    on_egress.graph.vertex(on_egress.graph.egress_vertices()[0])
        .params.credits = 1;
    EXPECT_THROW(run(on_egress, traffic), std::invalid_argument);

    PanicScenario limited{devices::panic_pipelined_chain_hw({}),
                                   core::ExecutionGraph("limited")};
    const auto in = limited.graph.add_ingress();
    const auto rl = limited.graph.add_rate_limiter(
        "rl", Bandwidth::from_gbps(10.0), 16);
    const auto out = limited.graph.add_egress();
    limited.graph.add_edge(in, rl);
    limited.graph.add_edge(rl, out);
    EXPECT_NO_THROW(limited.graph.validate(limited.hw));
    limited.graph.vertex(rl).params.credits = 2;
    EXPECT_THROW(run(limited, traffic), std::invalid_argument);
}

/// Records the range of every `credits_free` counter sample.
class CreditProbe final : public obs::TraceSink {
  public:
    obs::TrackId register_track(const std::string&) override
    {
        return next_++;
    }
    void span(obs::TrackId, const std::string&, Seconds, Seconds) override {}
    void counter(obs::TrackId, const std::string& name, Seconds,
                 double value) override
    {
        if (name != "credits_free")
            return;
        ++samples;
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    void instant(obs::TrackId, const std::string&, Seconds) override {}
    void async_begin(std::uint64_t, const std::string&, Seconds) override {}
    void async_end(std::uint64_t, const std::string&, Seconds) override {}

    std::uint64_t samples{0};
    double lo{1e300};
    double hi{-1e300};

  private:
    obs::TrackId next_{0};
};

TEST(CreditWindow, TracedCreditsStayInsideTheWindow)
{
    // Overloaded three-unit chain: every credit is taken and returned
    // many times, and the traced counter never leaves [0, credits].
    const std::uint32_t credits = 3;
    const auto sc = apps::make_panic_pipelined_chain(credits);
    CreditProbe probe;
    SimOptions o = quick();
    o.duration = 0.002;
    o.trace.sink = &probe;
    o.trace.sample_every = 0; // counters only
    const auto traced = run(sc, fixed(256.0, 90.0), o);
    EXPECT_GT(probe.samples, 1000u);
    EXPECT_EQ(probe.lo, 0.0); // overload exhausts the window
    EXPECT_GT(probe.hi, 0.0);
    EXPECT_LE(probe.hi, static_cast<double>(credits));

    // Tracing observes the window without perturbing it.
    o.trace.sink = nullptr;
    const auto plain = run(sc, fixed(256.0, 90.0), o);
    EXPECT_EQ(traced.completed_total, plain.completed_total);
    EXPECT_EQ(traced.events_executed, plain.events_executed);
}

TEST(PanicCreditCapacity, WindowFormula)
{
    const auto sc = one_unit_chain(2, Seconds::from_nanos(100.0),
                                   Bandwidth::from_gbps(1e6));
    const Bytes request{1000.0};
    // service 100 ns; rtt = 2 * 20 ns + 8000 b / 100 G = 120 ns.
    // window = 2 * 1000 B / 220 ns = 72.7 Gbps; compute = 80 Gbps.
    const Bandwidth cap = apps::panic_credit_capacity(
        sc.hw, sc.graph, *sc.graph.find_vertex("u"), request);
    EXPECT_NEAR(cap.gbps(), 2.0 * 8000.0 / 220.0, 0.5);

    // Only a credited vertex behind one dedicated link has a window.
    EXPECT_THROW(apps::panic_credit_capacity(
                     sc.hw, sc.graph, *sc.graph.find_vertex("rmt"), request),
                 std::invalid_argument);
}

TEST(PanicCreditCapacity, ComputeCapsTheWindow)
{
    const auto sc = one_unit_chain(64, Seconds::from_micros(1.0),
                                   Bandwidth::from_gbps(1e6));
    const Bandwidth cap = apps::panic_credit_capacity(
        sc.hw, sc.graph, *sc.graph.find_vertex("u"), Bytes{1000.0});
    // 64-credit window is huge; 1 us/op compute (8 Gbps) binds.
    EXPECT_NEAR(cap.gbps(), 8.0, 0.01);
}

TEST(PanicCreditCapacity, SimulatorAgreesWithAnalyticWindow)
{
    for (std::uint32_t credits : {1u, 2u, 3u}) {
        const auto sc = one_unit_chain(credits, Seconds::from_nanos(300.0),
                                       Bandwidth::from_gbps(1e6));
        const Bytes pkt{512.0};
        SimOptions o;
        o.duration = 0.02;
        o.exponential_service = false; // deterministic matches the formula
        o.poisson_arrivals = false;
        const auto res = run(sc, fixed(pkt.bytes(), 50.0), o);
        const Bandwidth analytic = apps::panic_credit_capacity(
            sc.hw, sc.graph, *sc.graph.find_vertex("u"), pkt);
        EXPECT_NEAR(res.delivered.gbps(), analytic.gbps(),
                    0.15 * analytic.gbps())
            << "credits=" << credits;
    }
}

} // namespace
} // namespace lognic::sim
