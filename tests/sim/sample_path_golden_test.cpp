/**
 * @file
 * Golden sample paths of the DES: the exact bits of each run's event count,
 * packet counters, latency statistics and per-vertex utilization, mean
 * occupancy, served and dropped counts. The rows were captured from the
 * simulator before its calendar and handler tables were reworked; the
 * occupancy, served and dropped columns before touch() stopped re-counting
 * the queues.
 *
 * Changes to the event calendar or to NicSimulator's handlers keep the
 * dispatch order, the RNG draws and every floating-point expression, which
 * makes every result bit-identical. This table checks that claim: one moved
 * bit anywhere in a sample path moves at least one of these fields.
 *
 * The cases span what the hot path distinguishes: generated check
 * scenarios (single queues, layered DAGs, two packet classes, shared-medium
 * transfers), per-input queues, deterministic (scv 0) service with zero
 * overheads (the tie-heavy case, where most events are scheduled for the
 * current instant), a fault plan, bursty arrivals, and a shortened credited
 * PANIC chain.
 *
 * A mismatch prints the run's actual row in source form. Replace a row only
 * in a change that is meant to move the sample path, and say why.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/traffic/profiles.hpp"

namespace lognic::sim {
namespace {

struct Golden {
    std::string name;
    std::uint64_t events;
    std::uint64_t generated;
    std::uint64_t completed;
    std::uint64_t dropped;
    std::uint64_t mean_bits;
    std::uint64_t p50_bits;
    std::uint64_t p99_bits;
    std::vector<std::uint64_t> utilization_bits;
    std::vector<std::uint64_t> occupancy_bits;
    std::vector<std::uint64_t> served;
    std::vector<std::uint64_t> vertex_dropped;

    bool operator==(const Golden&) const = default;
};

// clang-format off
const std::vector<Golden> kGolden = {
    {"seed0", 357188u, 89404u, 71515u, 189u,
     0x3ec7295acc9c9370u, 0x3ec1ef6a63ad1000u, 0x3ee4dac9b339b000u,
     {0x3fed5f396d8b7935u},
     {0x4028ae52c32b4418u},
     {89190u}, {189u}},
    {"seed3", 21834u, 5460u, 4392u, 0u,
     0x3ec6aad83fe636d7u, 0x3ec294bf967a8000u, 0x3ee346a1ef401000u,
     {0x3fde4238600bcec0u},
     {0x3fe7be89c876c053u},
     {5457u}, {0u}},
    {"seed5", 67628u, 10032u, 8024u, 0u,
     0x3edc79485a1c3c59u, 0x3ed67fc621cb9800u, 0x3efd4856005f5000u,
     {0x3fdeeb951f81ea77u, 0x3fe2c52ebbc42647u, 0x3fc5a8e25d00710fu, 0x3fc38f6bc11f1ff0u},
     {0x3fecad35a9e37760u, 0x3ff89651ec130713u, 0x3fe055756c6815afu, 0x3fdd6ae6f52126f8u},
     {4537u, 5492u, 5309u, 4717u}, {0u, 0u, 0u, 0u}},
    {"seed7", 72072u, 10297u, 8253u, 1u,
     0x3ed3cfe793564e3bu, 0x3ed01ce6ed548400u, 0x3ef0c2051ad5e800u,
     {0x3fd0376b37ffbea1u, 0x3fbbc9a732447291u, 0x3fe42f2552ce26afu},
     {0x3fe1939583fb290eu, 0x3fcc07edf3bb0b66u, 0x3ffaa77dca6b3cfcu},
     {8060u, 2236u, 10295u}, {0u, 0u, 1u}},
    {"seed11", 40942u, 10259u, 8160u, 0u,
     0x3ef2f7ce6fb79ad9u, 0x3eefb644aafb5800u, 0x3f0ab2a8e760de00u,
     {0x3fed68e8d6d4ecdau},
     {0x402276ccd6fd61b4u},
     {10212u}, {0u}},
    {"seed12", 157784u, 39448u, 31507u, 0u,
     0x3ec03e2c4ae6a2cdu, 0x3ebbb56e05fcc000u, 0x3ed8d71bca957000u,
     {0x3fe172da5bfc2cccu, 0x3fe86db67f3de59fu},
     {0x3ffd10860256acd4u, 0x3ffff1df5618a93du},
     {18818u, 20626u}, {0u, 0u}},
    {"seed15", 159369u, 20835u, 16538u, 0u,
     0x3edb3e8c61202a18u, 0x3eca497f0ea54000u, 0x3f02f08ae36f2c00u,
     {0x3fd126a09b4e8fb2u, 0x3feb46e4e94f9449u, 0x3fc803ed3b641dd0u, 0x3fcc92efe2243a84u},
     {0x3fe25584815bc37bu, 0x40143801a922adc6u, 0x3fd8de4d494c3f65u, 0x3fe5c6c966472689u},
     {11019u, 9814u, 7468u, 13364u}, {0u, 0u, 0u, 0u}},
    {"seed16", 202537u, 26521u, 21256u, 0u,
     0x3ec13962a2bbdef1u, 0x3ebda953e3368000u, 0x3ed99559ef4c9000u,
     {0x3fdd6a5a118a3d40u, 0x3fd09bde0b4387ccu, 0x3fe70b4898e50b1cu},
     {0x3fe666590b1ac921u, 0x3fd4503cee0b8c5fu, 0x3ffb2d9462dfde22u},
     {16896u, 9624u, 26519u}, {0u, 0u, 0u}},
    {"seed19", 145353u, 21682u, 17353u, 0u,
     0x3edbd11ce6831c1du, 0x3ed431e1b54f3800u, 0x3ef8addaa9636000u,
     {0x3fe717b0ab6c3e83u, 0x3fd70a34321f4f75u, 0x3fe237850b6d156au, 0x3febe9b4a7824b17u},
     {0x3ff9872056c0595fu, 0x3fe908b244bf46a0u, 0x3feb741bb4e15dd3u, 0x400f9a99eb56bd82u},
     {10861u, 10818u, 8585u, 13091u}, {0u, 0u, 0u, 0u}},
    {"seed45", 154024u, 38686u, 30672u, 287u,
     0x3ed7a09b654ec8a3u, 0x3ec4f4d46a897000u, 0x3ef9abcbe7d43c00u,
     {0x3fed7cce91460bfdu, 0x3fd49980b773382cu},
     {0x4022fee56e448722u, 0x3ff4d819d776914cu},
     {21098u, 17228u}, {287u, 0u}},
    {"per_input26", 77342u, 10482u, 8339u, 0u,
     0x3ed1a0c4ad13e5dau, 0x3eccd19dd6143800u, 0x3eedaf8cbb3e5400u,
     {0x3fe13d5355bedca5u, 0x3faf97845b814930u, 0x3fc6bb85bfb3f0f1u, 0x3fd82adc8b6e71b2u},
     {0x3ff1cafd1df69e4au, 0x3fc7b3ea78109f63u, 0x3fd7272596b7c5a6u, 0x3fe09c073cfc3c22u},
     {7767u, 2713u, 6690u, 3789u}, {0u, 0u, 0u, 0u}},
    {"per_input31", 131411u, 17383u, 13878u, 0u,
     0x3ed1ddb52248f9bfu, 0x3ec98a6ae9db4000u, 0x3ef3cfa84fbcda00u,
     {0x3fe545108246bf6eu, 0x3fc8bee9020fb7d7u, 0x3fe0bb91168821d5u},
     {0x3ffce9b2b8f96817u, 0x3fe2ad52a64fb8bau, 0x3ff4b665ef5ca16fu},
     {7636u, 9744u, 17379u}, {0u, 0u, 0u}},
    {"scv0_29", 58944u, 9825u, 7888u, 0u,
     0x3ee69c7383524938u, 0x3ee24eefc486a000u, 0x3f02e7a5933c7800u,
     {0x3fecd567abb5a3d7u, 0x3fcc7ad1aec3468eu, 0x3fe5b721c6458cfeu},
     {0x4011a20fafcbeda2u, 0x3fcc7ad1aec3468eu, 0x3fe5b721c6458cfeu},
     {9824u, 2416u, 7407u}, {0u, 0u, 0u}},
    {"scv0_44", 64207u, 9883u, 7907u, 0u,
     0x3ecf191cb9fa5da0u, 0x3ecc717de6630000u, 0x3ed1026727506000u,
     {0x3fcfc952b8dc498au, 0x3fd594b8e2f861dcu, 0x3fc45977d6b784d4u, 0x3fc71389ae4198f4u},
     {0x3fdfc952b8dc498au, 0x3fd594b8e2f861dcu, 0x3fe45977d6b784d4u, 0x3fd71389ae4198f4u},
     {4913u, 4970u, 6294u, 3587u}, {0u, 0u, 0u, 0u}},
    {"faulted", 311627u, 49975u, 31711u, 8174u,
     0x3eeac9bc550a29bau, 0x3ec833fd8051c000u, 0x3f0c238235e2b100u,
     {0x3fd637412db77b23u, 0x3fe21b58448a3758u},
     {0x40396506e8bb8963u, 0x3ffb112c8b0a6777u},
     {42693u, 41794u}, {7276u, 898u}},
    {"bursty", 155051u, 19865u, 15886u, 0u,
     0x3ec2746e60bcaed6u, 0x3ebeb27733cd0000u, 0x3ede4c17d3ee7000u,
     {0x3fc5d28f4bbac5d3u, 0x3fd0f3622dd23dc6u},
     {0x3ff5d4956093181cu, 0x3fe4b2fe3264b0dfu},
     {19865u, 19865u}, {0u, 0u}},
    {"panic4", 1018367u, 99370u, 41236u, 38286u,
     0x3ead10dfcae7c4a5u, 0x3ead1054dd87bc00u, 0x3eb0ff46ad385e00u,
     {0x3fcdd1c868018bc0u, 0x3fea8e931dd46851u, 0x3fea8ec6e0857be4u, 0x3fea8ef111a585e2u},
     {0x403dd1c868018bc0u, 0x3ff3972beaf64c7eu, 0x3ff38de574a0441du, 0x3ff38da8c129cbbeu},
     {99339u, 51452u, 51449u, 51446u}, {0u, 38286u, 0u, 0u}},
};
// clang-format on

std::uint64_t
bits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/// The row of kGolden that @p r would have.
std::string
source_row(const std::string& name, const SimResult& r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"%s\", %" PRIu64 "u, %" PRIu64 "u, %" PRIu64
                  "u, %" PRIu64 "u,\n     0x%016" PRIx64 "u, 0x%016" PRIx64
                  "u, 0x%016" PRIx64 "u,\n     {",
                  name.c_str(), r.events_executed, r.generated, r.completed,
                  r.dropped, bits(r.mean_latency.seconds()),
                  bits(r.p50_latency.seconds()),
                  bits(r.p99_latency.seconds()));
    std::string row = buf;
    const auto list = [&](auto field, const char* format) {
        std::string out = "{";
        for (std::size_t i = 0; i < r.vertex_stats.size(); ++i) {
            std::snprintf(buf, sizeof buf, format, field(r.vertex_stats[i]));
            out += (i == 0 ? "" : ", ") + std::string(buf);
        }
        return out + "}";
    };
    const char* hex = "0x%016" PRIx64 "u";
    const char* dec = "%" PRIu64 "u";
    row += list([](const VertexStats& vs) { return bits(vs.utilization); },
                hex).substr(1);
    row += ",\n     "
        + list([](const VertexStats& vs) { return bits(vs.mean_occupancy); },
               hex);
    row += ",\n     "
        + list([](const VertexStats& vs) { return vs.served; }, dec) + ", "
        + list([](const VertexStats& vs) { return vs.dropped; }, dec);
    return row + "},";
}

void
expect_golden(const std::string& name, const SimResult& r)
{
    Golden actual{name,
                  r.events_executed,
                  r.generated,
                  r.completed,
                  r.dropped,
                  bits(r.mean_latency.seconds()),
                  bits(r.p50_latency.seconds()),
                  bits(r.p99_latency.seconds()),
                  {},
                  {},
                  {},
                  {}};
    for (const VertexStats& vs : r.vertex_stats) {
        actual.utilization_bits.push_back(bits(vs.utilization));
        actual.occupancy_bits.push_back(bits(vs.mean_occupancy));
        actual.served.push_back(vs.served);
        actual.vertex_dropped.push_back(vs.dropped);
    }
    for (const Golden& g : kGolden) {
        if (g.name == name) {
            EXPECT_TRUE(g == actual)
                << name << " left its golden sample path; it now reads\n"
                << source_row(name, r);
            return;
        }
    }
    ADD_FAILURE() << "no golden row for " << name << "; it reads\n"
                  << source_row(name, r);
}

SimOptions
generated_options(std::uint64_t seed)
{
    SimOptions o;
    o.duration = 0.02;
    o.seed = seed + 1000;
    return o;
}

TEST(SamplePathGolden, GeneratedCheckScenarios)
{
    // Single queues (3, 11), two classes on one vertex (0) and on two near
    // saturation (45), fan-out DAGs with shared-medium edges (5, 7, 15,
    // 16), two classes on two deterministic IPs (12) and an
    // all-deterministic DAG (19).
    for (const std::uint64_t seed : {0, 3, 5, 7, 11, 12, 15, 16, 19, 45}) {
        const io::Scenario sc = check::generate_scenario(seed).scenario;
        expect_golden("seed" + std::to_string(seed),
                      simulate(sc.hw, sc.graph, sc.traffic,
                               generated_options(seed)));
    }
}

TEST(SamplePathGolden, PerInputQueues)
{
    // Both scenarios have a vertex with two in-edges, so the round-robin
    // probe over its queues runs.
    for (const std::uint64_t seed : {26, 31}) {
        io::Scenario sc = check::generate_scenario(seed).scenario;
        for (core::VertexId v = 0; v < sc.graph.vertex_count(); ++v) {
            if (sc.graph.vertex(v).kind == core::VertexKind::kIp)
                sc.graph.vertex(v).params.per_input_queues = true;
        }
        expect_golden("per_input" + std::to_string(seed),
                      simulate(sc.hw, sc.graph, sc.traffic,
                               generated_options(seed)));
    }
}

TEST(SamplePathGolden, DeterministicServiceWithZeroOverheads)
{
    // scv 0 on every IP and no overheads: each completion schedules its
    // departure for the current instant, and paced arrivals (44) line
    // whole chains up on equal timestamps.
    for (const std::uint64_t seed : {29, 44}) {
        io::Scenario sc = check::generate_scenario(seed).scenario;
        for (core::IpId ip = 0; ip < sc.hw.ip_count(); ++ip)
            sc.hw.ip(ip).service_scv = 0.0;
        SimOptions o = generated_options(seed);
        o.poisson_arrivals = seed != 44;
        expect_golden("scv0_" + std::to_string(seed),
                      simulate(sc.hw, sc.graph, sc.traffic, o));
    }
}

TEST(SamplePathGolden, FaultPlan)
{
    // cores -> accel over memory under every fault kind; the engine
    // failure aborts in-service requests, whose completions then fire as
    // stale no-ops.
    const auto hw = test::small_nic(Bandwidth::from_gbps(1000.0));
    const auto g = test::two_stage_graph(hw);
    auto event = [](fault::FaultKind kind, double at, const char* target) {
        fault::FaultEvent e;
        e.kind = kind;
        e.at = at;
        e.target = target;
        return e;
    };
    auto fail = event(fault::FaultKind::kEngineFail, 0.006, "cores");
    fail.count = 6;
    fail.duration = 0.006;
    auto slow = event(fault::FaultKind::kSlowdown, 0.008, "accel");
    slow.factor = 1.5;
    slow.duration = 0.004;
    auto burst = event(fault::FaultKind::kDropBurst, 0.01, "accel");
    burst.probability = 0.3;
    burst.duration = 0.002;
    auto degrade = event(fault::FaultKind::kLinkDegrade, 0.012, "memory");
    degrade.factor = 0.5;
    degrade.duration = 0.003;
    auto shrink = event(fault::FaultKind::kQueueCapacity, 0.014, "cores");
    shrink.capacity = 4;
    shrink.duration = 0.002;
    SimOptions o;
    o.duration = 0.02;
    o.seed = 7;
    o.faults.events = {fail, slow, burst, degrade, shrink};
    expect_golden("faulted", simulate(hw, g, test::mtu_traffic(30.0), o));
}

TEST(SamplePathGolden, BurstyArrivals)
{
    const auto hw = test::small_nic();
    const auto g = test::two_stage_graph(hw);
    SimOptions o;
    o.duration = 0.02;
    o.seed = 11;
    o.burst.enabled = true;
    o.burst.intensity = 1.8;
    expect_golden("bursty", simulate(hw, g, test::mtu_traffic(12.0), o));
}

TEST(SamplePathGolden, CreditedPanicChain)
{
    // The Figure-15 chain at 4 credits with deterministic service: credit
    // windows, held packets and dedicated links.
    const auto sc = apps::make_panic_pipelined_chain(4);
    SimOptions o;
    o.duration = 0.001;
    o.seed = 17;
    o.exponential_service = false;
    expect_golden(
        "panic4",
        simulate(sc.hw, sc.graph,
                 traffic::panic_profile(1, Bandwidth::from_gbps(90.0)), o));
}

} // namespace
} // namespace lognic::sim
