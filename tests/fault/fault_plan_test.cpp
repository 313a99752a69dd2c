#include "lognic/fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace lognic::fault {
namespace {

FaultEvent
engine_fail(double at, const std::string& target, std::uint32_t count = 1)
{
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::kEngineFail;
    e.target = target;
    e.count = count;
    return e;
}

TEST(FaultPlan, KindNamesRoundTrip)
{
    for (FaultKind kind :
         {FaultKind::kEngineFail, FaultKind::kEngineRecover,
          FaultKind::kSlowdown, FaultKind::kLinkDegrade,
          FaultKind::kDropBurst, FaultKind::kQueueCapacity}) {
        EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
    }
    EXPECT_THROW(fault_kind_from_string("meltdown"), std::invalid_argument);
    EXPECT_EQ(in_service_policy_from_string(
                  to_string(InServicePolicy::kDrop)),
              InServicePolicy::kDrop);
    EXPECT_THROW(in_service_policy_from_string("shrug"),
                 std::invalid_argument);
}

TEST(FaultPlan, ValidateEnforcesPerKindRanges)
{
    FaultPlan ok;
    ok.events.push_back(engine_fail(0.01, "cores", 2));
    EXPECT_NO_THROW(ok.validate());

    // Empty target.
    FaultPlan bad = ok;
    bad.events[0].target.clear();
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Negative time.
    bad = ok;
    bad.events[0].at = -1.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Zero engines.
    bad = ok;
    bad.events[0].count = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Slowdown must slow things down.
    bad = ok;
    bad.events[0].kind = FaultKind::kSlowdown;
    bad.events[0].factor = 0.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Link degradation must be a real degradation in (0, 1].
    bad = ok;
    bad.events[0].kind = FaultKind::kLinkDegrade;
    bad.events[0].target = "memory";
    bad.events[0].factor = 1.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.events[0].factor = 0.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Drop probability in (0, 1].
    bad = ok;
    bad.events[0].kind = FaultKind::kDropBurst;
    bad.events[0].probability = 0.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.events[0].probability = 1.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Queue capacity >= 1.
    bad = ok;
    bad.events[0].kind = FaultKind::kQueueCapacity;
    bad.events[0].capacity = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FaultPlan, ValidationErrorsNameTheEvent)
{
    FaultPlan plan;
    plan.events.push_back(engine_fail(0.01, "cores"));
    plan.events.push_back(engine_fail(0.02, "accel", 0));
    try {
        plan.validate();
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("#1"), std::string::npos) << what;
        EXPECT_NE(what.find("accel"), std::string::npos) << what;
    }
}

TEST(FaultPlan, SortedOrdersByTimeStably)
{
    FaultPlan plan;
    plan.events.push_back(engine_fail(0.02, "late"));
    plan.events.push_back(engine_fail(0.01, "first"));
    plan.events.push_back(engine_fail(0.01, "second"));
    const auto sorted = plan.sorted();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].target, "first");
    EXPECT_EQ(sorted[1].target, "second");
    EXPECT_EQ(sorted[2].target, "late");
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic)
{
    const std::vector<std::string> targets{"cores", "accel"};
    const auto a = random_fault_plan(7, targets);
    const auto b = random_fault_plan(7, targets);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].target, b.events[i].target);
        EXPECT_DOUBLE_EQ(a.events[i].duration, b.events[i].duration);
    }
    EXPECT_NO_THROW(a.validate());

    // A different seed gives a genuinely different timeline (with a dense
    // enough config that a plan is near-certain to have events).
    RandomFaultConfig dense;
    dense.mtbf = 0.005;
    const auto c = random_fault_plan(8, targets, dense);
    const auto d = random_fault_plan(9, targets, dense);
    ASSERT_FALSE(c.events.empty());
    const bool differs = c.events.size() != d.events.size()
        || c.events[0].at != d.events[0].at;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomPlanStaysInsideHorizon)
{
    RandomFaultConfig cfg;
    cfg.horizon = 0.02;
    cfg.mtbf = 0.003;
    cfg.mttr = 0.002;
    const auto plan = random_fault_plan(11, {"u"}, cfg);
    for (const auto& e : plan.events) {
        EXPECT_GE(e.at, 0.0);
        EXPECT_LT(e.at, cfg.horizon);
    }
}

TEST(FaultPlanJson, RoundTripsThroughJson)
{
    FaultPlan plan;
    plan.in_service_policy = InServicePolicy::kDrop;
    plan.events.push_back(engine_fail(0.01, "cores", 3));
    FaultEvent degrade;
    degrade.at = 0.02;
    degrade.kind = FaultKind::kLinkDegrade;
    degrade.target = "memory";
    degrade.factor = 0.5;
    degrade.duration = 0.005;
    plan.events.push_back(degrade);

    const auto parsed = fault_plan_from_json(to_json(plan));
    EXPECT_EQ(parsed.in_service_policy, InServicePolicy::kDrop);
    ASSERT_EQ(parsed.events.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.events[0].at, 0.01);
    EXPECT_EQ(parsed.events[0].kind, FaultKind::kEngineFail);
    EXPECT_EQ(parsed.events[0].count, 3u);
    EXPECT_EQ(parsed.events[1].kind, FaultKind::kLinkDegrade);
    EXPECT_DOUBLE_EQ(parsed.events[1].factor, 0.5);
    EXPECT_DOUBLE_EQ(parsed.events[1].duration, 0.005);
}

TEST(FaultPlanJson, SamplePlanParses)
{
    const auto plan =
        fault_plan_from_json(io::Json::parse(sample_fault_plan()));
    EXPECT_FALSE(plan.empty());
    EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanJson, AcceptsBareEventArray)
{
    const auto plan = fault_plan_from_json(io::Json::parse(
        R"([{"at": 0.01, "kind": "engine_fail", "target": "cores"}])"));
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].target, "cores");
    EXPECT_EQ(plan.in_service_policy, InServicePolicy::kRequeue);
}

TEST(FaultPlanJson, RejectsMalformedDocuments)
{
    EXPECT_THROW(fault_plan_from_json(io::Json::parse("42")),
                 std::runtime_error);
    EXPECT_THROW(fault_plan_from_json(io::Json::parse(
                     R"([{"kind": "engine_fail"}])")),
                 std::runtime_error); // missing target
    EXPECT_THROW(fault_plan_from_json(io::Json::parse(
                     R"([{"at": 0.1, "kind": "warp", "target": "x"}])")),
                 std::runtime_error);
    // Engine counts and queue capacities are integers: 1.5 engines are
    // not one, and -1 is not 4294967295.
    EXPECT_THROW(fault_plan_from_json(io::Json::parse(
                     R"([{"kind": "engine_fail", "target": "cores",
                          "count": 1.5}])")),
                 std::runtime_error);
    EXPECT_THROW(fault_plan_from_json(io::Json::parse(
                     R"([{"kind": "queue_capacity", "target": "cores",
                          "capacity": -1}])")),
                 std::runtime_error);
}

} // namespace
} // namespace lognic::fault
