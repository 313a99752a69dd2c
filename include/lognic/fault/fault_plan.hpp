/**
 * @file
 * Deterministic fault schedules for the simulators and the degraded-mode
 * model.
 *
 * A FaultPlan is a list of timed fault events — engine fail-stop and
 * recovery, engine slowdown, shared-link bandwidth degradation, transient
 * drop bursts, and queue-capacity reduction — that a simulator replays
 * mid-run and the analytical model can bake into a fault-adjusted
 * parameter set (see degradation.hpp). Plans are plain data: they
 * serialize to/from JSON exactly like sweep specs, and the random
 * generator derives every sample from an explicit seed, so a faulted run
 * is as reproducible as a fault-free one.
 *
 * Targets are referenced by *name*: one of the shared links "interface"
 * and "memory" for link-degradation events, an IP or rate-limiter vertex
 * of the execution graph for every other kind. resolve_target() holds
 * that rule for both consumers, the simulator and the degraded-mode
 * model, which throw on a target it refuses before anything runs.
 */
#ifndef LOGNIC_FAULT_FAULT_PLAN_HPP_
#define LOGNIC_FAULT_FAULT_PLAN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/io/json.hpp"

namespace lognic::fault {

enum class FaultKind {
    kEngineFail,    ///< take `count` engines of `target` offline
    kEngineRecover, ///< bring `count` engines of `target` back
    kSlowdown,      ///< multiply `target` service times by `factor` (> 1)
    kLinkDegrade,   ///< multiply a shared link's bandwidth by `factor` (< 1)
    kDropBurst,     ///< drop arrivals at `target` w.p. `probability`
    kQueueCapacity, ///< override `target` queue capacity with `capacity`
};

const char* to_string(FaultKind kind);
/// @throws std::invalid_argument on an unknown kind name.
FaultKind fault_kind_from_string(const std::string& name);

/// What happens to requests that are in service when their engine fails.
enum class InServicePolicy {
    kRequeue, ///< the request re-enters the head of its queue (default)
    kDrop,    ///< the request is lost (counted as an engine_fail drop)
};

const char* to_string(InServicePolicy policy);
InServicePolicy in_service_policy_from_string(const std::string& name);

/**
 * One timed fault. Only the fields its kind reads are meaningful; the
 * rest keep their defaults (validate() enforces the per-kind rules).
 * `duration > 0` schedules the automatic inverse event at `at + duration`
 * (recover / speed back up / restore bandwidth / end the burst / restore
 * capacity); `duration == 0` leaves the fault in force until a later
 * event counters it or the run ends.
 */
struct FaultEvent {
    double at{0.0};            ///< simulated seconds from run start
    FaultKind kind{FaultKind::kEngineFail};
    std::string target;        ///< vertex name or shared-link name
    std::uint32_t count{1};    ///< engines failed/recovered
    double factor{1.0};        ///< slowdown (> 1) or link multiplier (0, 1)
    double duration{0.0};      ///< 0 = until countered / end of run
    double probability{1.0};   ///< drop-burst drop probability, in (0, 1]
    std::uint32_t capacity{1}; ///< queue-capacity override (>= 1)
};

struct FaultPlan {
    std::vector<FaultEvent> events;
    /// Applies to every engine-fail event in the plan.
    InServicePolicy in_service_policy{InServicePolicy::kRequeue};

    bool empty() const { return events.empty(); }

    /// Events ordered by (time, insertion order) — the replay order.
    std::vector<FaultEvent> sorted() const;

    /**
     * Check per-kind parameter ranges (times finite and >= 0, slowdown
     * factor >= 1, degrade factor in (0, 1], probability in (0, 1], ...).
     * @throws std::invalid_argument naming the offending event index,
     * kind, and target.
     */
    void validate() const;
};

/**
 * Where @p event lands in @p graph: for link_degrade, the shared link
 * (0 = "interface", 1 = "memory"); for every other kind, the id of an IP
 * or rate-limiter vertex.
 * @throws std::invalid_argument naming the target when it is neither.
 */
std::size_t resolve_target(const FaultEvent& event,
                           const core::ExecutionGraph& graph);

// --- seeded random plans ------------------------------------------------------

/**
 * Knobs for random_fault_plan. Failures alternate with repairs per
 * target: exponential time-to-failure with mean @p mtbf, exponential
 * repair time with mean @p mttr, clipped to @p horizon.
 */
struct RandomFaultConfig {
    double horizon{0.05};        ///< generate events in [0, horizon)
    double mtbf{0.02};           ///< mean seconds between failures
    double mttr{0.005};          ///< mean seconds to repair
    std::uint32_t max_engines_per_fault{1}; ///< engines lost per failure
};

/**
 * A deterministic MTBF/MTTR fail-stop/recover timeline over @p targets.
 * Identical (seed, targets, config) inputs yield identical plans on every
 * platform.
 */
FaultPlan random_fault_plan(std::uint64_t seed,
                            const std::vector<std::string>& targets,
                            const RandomFaultConfig& config = {});

// --- JSON ---------------------------------------------------------------------

io::Json to_json(const FaultEvent& event);
io::Json to_json(const FaultPlan& plan);

/**
 * Parse {"faults": [...], "in_service_policy": "requeue"|"drop"} (or a
 * bare event array). The result is validate()d.
 * @throws std::runtime_error on malformed documents.
 */
FaultPlan fault_plan_from_json(const io::Json& doc);

/// A small commented-by-construction sample plan (for `lognic example`).
std::string sample_fault_plan();

} // namespace lognic::fault

#endif // LOGNIC_FAULT_FAULT_PLAN_HPP_
