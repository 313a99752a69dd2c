#include "lognic/core/execution_graph.hpp"

#include <gtest/gtest.h>

namespace lognic::core {
namespace {

HardwareModel
toy_hw()
{
    HardwareModel hw("toy", Bandwidth::from_gbps(100.0),
                     Bandwidth::from_gbps(100.0), Bandwidth::from_gbps(25.0));
    IpSpec ip;
    ip.name = "cores";
    ip.roofline = ExtendedRoofline(
        ServiceModel{Seconds::from_micros(1.0), Bandwidth::from_gbps(1e6)},
        {});
    ip.max_engines = 8;
    hw.add_ip(ip);
    return hw;
}

ExecutionGraph
chain_graph(const HardwareModel& hw)
{
    ExecutionGraph g("chain");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto v = g.add_ip_vertex("work", *hw.find_ip("cores"));
    g.add_edge(in, v);
    g.add_edge(v, out);
    return g;
}

TEST(ExecutionGraph, BuildsAndValidatesChain)
{
    const HardwareModel hw = toy_hw();
    const ExecutionGraph g = chain_graph(hw);
    EXPECT_EQ(g.vertex_count(), 3u);
    EXPECT_EQ(g.edge_count(), 2u);
    EXPECT_NO_THROW(g.validate(hw));
}

TEST(ExecutionGraph, RejectsDuplicateVertexNames)
{
    ExecutionGraph g;
    g.add_ingress("a");
    EXPECT_THROW(g.add_egress("a"), std::invalid_argument);
}

TEST(ExecutionGraph, RejectsSelfLoopsAndBadIds)
{
    ExecutionGraph g;
    const auto in = g.add_ingress();
    EXPECT_THROW(g.add_edge(in, in), std::invalid_argument);
    EXPECT_THROW(g.add_edge(in, 99), std::out_of_range);
    EXPECT_THROW(g.vertex(42), std::out_of_range);
    EXPECT_THROW(g.edge(42), std::out_of_range);
}

TEST(ExecutionGraph, ValidateRequiresIngressAndEgress)
{
    const HardwareModel hw = toy_hw();
    ExecutionGraph no_ingress;
    no_ingress.add_egress();
    EXPECT_THROW(no_ingress.validate(hw), std::invalid_argument);

    ExecutionGraph no_egress;
    no_egress.add_ingress();
    EXPECT_THROW(no_egress.validate(hw), std::invalid_argument);
}

TEST(ExecutionGraph, ValidateDetectsCycle)
{
    const HardwareModel hw = toy_hw();
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto a = g.add_ip_vertex("a", 0);
    const auto b = g.add_ip_vertex("b", 0);
    g.add_edge(in, a);
    g.add_edge(a, b);
    g.add_edge(b, a); // cycle
    g.add_edge(b, out);
    EXPECT_THROW(g.validate(hw), std::invalid_argument);
    EXPECT_THROW(g.topological_order(), std::invalid_argument);
}

TEST(ExecutionGraph, ValidateDetectsDeadEndAndUnreachable)
{
    const HardwareModel hw = toy_hw();
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto a = g.add_ip_vertex("a", 0);
    g.add_edge(in, a);
    g.add_edge(a, out);
    g.add_ip_vertex("orphan", 0); // no edges at all
    EXPECT_THROW(g.validate(hw), std::invalid_argument);
}

TEST(ExecutionGraph, StructuralErrorsNameTheFirstBadVertex)
{
    const HardwareModel hw = toy_hw();
    const auto what = [&](const ExecutionGraph& g) {
        try {
            g.validate(hw);
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    // Vertices are checked in id order, each against the four structural
    // rules in a fixed order; the first failure is the one reported.
    {
        // "orphan" has neither in- nor out-edges: unreachable wins.
        ExecutionGraph g("g");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto a = g.add_ip_vertex("a", 0);
        g.add_edge(in, a);
        g.add_edge(a, out);
        g.add_ip_vertex("orphan", 0);
        g.add_ip_vertex("orphan2", 0);
        EXPECT_EQ(what(g),
                  "ExecutionGraph 'g' vertex 'orphan': unreachable (no "
                  "in-edges)");
    }
    {
        // "sink" (id 3) dead-ends before "source" (id 4) is reached.
        ExecutionGraph g("g");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto a = g.add_ip_vertex("a", 0);
        const auto sink = g.add_ip_vertex("sink", 0);
        const auto source = g.add_ip_vertex("source", 0);
        g.add_edge(in, a);
        g.add_edge(a, out);
        g.add_edge(a, sink);
        g.add_edge(source, out);
        EXPECT_EQ(what(g),
                  "ExecutionGraph 'g' vertex 'sink': dead end (no "
                  "out-edges)");
    }
    {
        // A second ingress fed by "a" and a dead end after it: the
        // ingress has the lower id.
        ExecutionGraph g("g");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto a = g.add_ip_vertex("a", 0);
        const auto in2 = g.add_ingress("in2");
        const auto sink = g.add_ip_vertex("sink", 0);
        g.add_edge(in, a);
        g.add_edge(a, out);
        g.add_edge(a, in2);
        g.add_edge(in2, out);
        g.add_edge(in2, sink);
        EXPECT_EQ(what(g),
                  "ExecutionGraph 'g' vertex 'in2': ingress cannot have "
                  "inputs");
    }
    {
        // An egress feeding a second egress: the first one is named.
        ExecutionGraph g("g");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto a = g.add_ip_vertex("a", 0);
        const auto out2 = g.add_egress("out2");
        g.add_edge(in, a);
        g.add_edge(a, out);
        g.add_edge(out, out2);
        EXPECT_EQ(what(g),
                  "ExecutionGraph 'g' vertex 'egress': egress cannot have "
                  "outputs");
    }
}

TEST(ExecutionGraph, ValidateChecksParameterRanges)
{
    const HardwareModel hw = toy_hw();
    {
        ExecutionGraph g = chain_graph(hw);
        g.vertex(*g.find_vertex("work")).params.parallelism = 99;
        EXPECT_THROW(g.validate(hw), std::invalid_argument);
    }
    {
        ExecutionGraph g = chain_graph(hw);
        g.vertex(*g.find_vertex("work")).params.partition = 0.0;
        EXPECT_THROW(g.validate(hw), std::invalid_argument);
    }
    {
        ExecutionGraph g = chain_graph(hw);
        g.vertex(*g.find_vertex("work")).params.acceleration = -1.0;
        EXPECT_THROW(g.validate(hw), std::invalid_argument);
    }
    {
        ExecutionGraph g = chain_graph(hw);
        g.edge(0).params.delta = 1.5;
        EXPECT_THROW(g.validate(hw), std::invalid_argument);
    }
    {
        ExecutionGraph g = chain_graph(hw);
        g.edge(0).params.alpha = -0.1;
        EXPECT_THROW(g.validate(hw), std::invalid_argument);
    }
}

TEST(ExecutionGraph, ValidationErrorsNameTheOffender)
{
    const HardwareModel hw = toy_hw();
    // Parallelism violations name the graph, the vertex, the bad value,
    // and the IP's limit — a sweep over many generated graphs needs the
    // message alone to identify the culprit.
    {
        ExecutionGraph g = chain_graph(hw);
        g.vertex(*g.find_vertex("work")).params.parallelism = 99;
        try {
            g.validate(hw);
            FAIL() << "expected invalid_argument";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("chain"), std::string::npos) << what;
            EXPECT_NE(what.find("work"), std::string::npos) << what;
            EXPECT_NE(what.find("99"), std::string::npos) << what;
            EXPECT_NE(what.find("cores"), std::string::npos) << what;
            EXPECT_NE(what.find("8"), std::string::npos) << what;
        }
    }
    // Dangling IP references name the hardware model and its IP count.
    {
        ExecutionGraph g("dangling");
        const auto in = g.add_ingress();
        const auto out = g.add_egress();
        const auto v = g.add_ip_vertex("phantom", 7);
        g.add_edge(in, v);
        g.add_edge(v, out);
        try {
            g.validate(hw);
            FAIL() << "expected invalid_argument";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("phantom"), std::string::npos) << what;
            EXPECT_NE(what.find("toy"), std::string::npos) << what;
            EXPECT_NE(what.find("7"), std::string::npos) << what;
        }
    }
    // Accessor and edge errors carry the graph name and the bad id.
    {
        ExecutionGraph g("lookup");
        g.add_ingress();
        try {
            g.vertex(42);
            FAIL() << "expected out_of_range";
        } catch (const std::out_of_range& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("lookup"), std::string::npos) << what;
            EXPECT_NE(what.find("42"), std::string::npos) << what;
        }
    }
}

TEST(HardwareModel, ErrorsNameTheModelAndTheIp)
{
    // Which of the three constructor bandwidths was bad is in the message.
    try {
        HardwareModel bad("half-built", Bandwidth::from_gbps(100.0),
                          Bandwidth::from_gbps(0.0),
                          Bandwidth::from_gbps(25.0));
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("half-built"), std::string::npos) << what;
        EXPECT_NE(what.find("memory"), std::string::npos) << what;
    }

    HardwareModel hw = toy_hw();
    IpSpec dup;
    dup.name = "cores";
    dup.max_engines = 1;
    try {
        hw.add_ip(dup);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("toy"), std::string::npos) << what;
        EXPECT_NE(what.find("cores"), std::string::npos) << what;
    }

    try {
        hw.ip(9);
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("toy"), std::string::npos) << what;
        EXPECT_NE(what.find("9"), std::string::npos) << what;
    }

    try {
        hw.set_ip_bandwidth(0, 5, Bandwidth::from_gbps(10.0));
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("5"), std::string::npos)
            << e.what();
    }
}

TEST(ExecutionGraph, TopologicalOrderRespectsEdges)
{
    const HardwareModel hw = toy_hw();
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto a = g.add_ip_vertex("a", 0);
    const auto b = g.add_ip_vertex("b", 0);
    g.add_edge(in, a);
    g.add_edge(a, b);
    g.add_edge(b, out);
    const auto order = g.topological_order();
    auto pos = [&](VertexId v) {
        for (std::size_t i = 0; i < order.size(); ++i)
            if (order[i] == v)
                return i;
        return order.size();
    };
    EXPECT_LT(pos(in), pos(a));
    EXPECT_LT(pos(a), pos(b));
    EXPECT_LT(pos(b), pos(out));
}

TEST(ExecutionGraph, EnumeratesDiamondPathsWithWeights)
{
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto a = g.add_ip_vertex("a", 0);
    const auto b = g.add_ip_vertex("b", 0);
    g.add_edge(in, a, EdgeParams{0.75, 0, 0, {}});
    g.add_edge(in, b, EdgeParams{0.25, 0, 0, {}});
    g.add_edge(a, out, EdgeParams{0.75, 0, 0, {}});
    g.add_edge(b, out, EdgeParams{0.25, 0, 0, {}});

    const auto paths = g.enumerate_paths();
    ASSERT_EQ(paths.size(), 2u);
    double total = 0.0;
    for (const auto& p : paths) {
        EXPECT_EQ(p.edges.size(), 2u);
        total += p.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // The heavier branch carries 75% of traffic.
    const double w0 = paths[0].weight;
    EXPECT_TRUE(std::abs(w0 - 0.75) < 1e-9 || std::abs(w0 - 0.25) < 1e-9);
}

TEST(ExecutionGraph, PathExplosionGuard)
{
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    // A ladder of 2-way fanouts: 2^10 paths.
    VertexId prev_a = in;
    VertexId prev_b = in;
    for (int level = 0; level < 10; ++level) {
        const auto a = g.add_ip_vertex("a" + std::to_string(level), 0);
        const auto b = g.add_ip_vertex("b" + std::to_string(level), 0);
        if (level == 0) {
            g.add_edge(in, a);
            g.add_edge(in, b);
        } else {
            g.add_edge(prev_a, a);
            g.add_edge(prev_a, b);
            g.add_edge(prev_b, a);
            g.add_edge(prev_b, b);
        }
        prev_a = a;
        prev_b = b;
    }
    g.add_edge(prev_a, out);
    g.add_edge(prev_b, out);
    EXPECT_THROW(g.enumerate_paths(16), std::invalid_argument);
    EXPECT_NO_THROW(g.enumerate_paths(100000));
}

TEST(ExecutionGraph, InDeltaSumAggregates)
{
    ExecutionGraph g;
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto a = g.add_ip_vertex("a", 0);
    const auto b = g.add_ip_vertex("b", 0);
    g.add_edge(in, a, EdgeParams{0.6, 0, 0, {}});
    g.add_edge(in, b, EdgeParams{0.4, 0, 0, {}});
    g.add_edge(a, b, EdgeParams{0.6, 0, 0, {}});
    g.add_edge(b, out, EdgeParams{1.0, 0, 0, {}});
    EXPECT_DOUBLE_EQ(g.in_delta_sum(b), 1.0);
    EXPECT_DOUBLE_EQ(g.in_delta_sum(a), 0.6);
    EXPECT_EQ(g.in_degree(b), 2u);
}

TEST(ExecutionGraph, RateLimiterVertexValidation)
{
    ExecutionGraph g;
    EXPECT_THROW(g.add_rate_limiter("rl", Bandwidth::from_gbps(0.0), 4),
                 std::invalid_argument);
    EXPECT_NO_THROW(g.add_rate_limiter("rl", Bandwidth::from_gbps(5.0), 4));
}

TEST(ExecutionGraph, FindVertexByName)
{
    ExecutionGraph g;
    g.add_ingress("rx");
    EXPECT_TRUE(g.find_vertex("rx").has_value());
    EXPECT_FALSE(g.find_vertex("nope").has_value());
}

} // namespace
} // namespace lognic::core
