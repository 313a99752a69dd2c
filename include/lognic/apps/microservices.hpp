/**
 * @file
 * Case study #3 (S4.4): E3 Microservice execution on the LiquidIO CN2360.
 *
 * Each E3 application is a service chain of stages executing on the NIC's
 * 16 cnMIPS cores. The paper compares three core-allocation schemes:
 *
 *  - round-robin (E3's default): every request is handled run-to-completion
 *    by one core chosen round-robin. All inter-request parallelism, no
 *    intra-request parallelism; the whole chain's code and working set
 *    thrash each core (modelled as a monolithic execution penalty).
 *  - equal partition: cores are split evenly across stages regardless of
 *    per-stage cost, so the heaviest stage bottlenecks the pipeline.
 *  - LogNIC-opt: per-stage core counts (D_vi) that maximize the modelled
 *    throughput under the core budget (dse::lognic_opt_alloc).
 */
#ifndef LOGNIC_APPS_MICROSERVICES_HPP_
#define LOGNIC_APPS_MICROSERVICES_HPP_

#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"

namespace lognic::apps {

/// The five E3 applications evaluated in the paper.
enum class E3Workload {
    kNfvFin, ///< flow monitoring
    kNfvDin, ///< intrusion detection
    kRtaSf,  ///< spam filter
    kRtaShm, ///< server health monitoring
    kIotDh,  ///< IoT data hub
};

const char* to_string(E3Workload workload);
std::vector<E3Workload> e3_workloads();

/// One stage of a service chain.
struct E3Stage {
    std::string name;
    Seconds fixed{0.0};        ///< per-request fixed compute
    double stream_passes{1.0}; ///< payload traversals on the core
};

/// The service chain of @p workload.
std::vector<E3Stage> e3_stages(E3Workload workload);

/// Relative compute inflation of monolithic run-to-completion execution
/// (I-cache and working-set thrash across the whole chain).
double e3_monolithic_penalty();

/// Cross-core request handoff overhead between pipelined stages (O_i).
Seconds e3_handoff_overhead();

/// E3 request size used throughout the case study.
Bytes e3_request_size();

struct MicroserviceScenario {
    core::HardwareModel hw;
    core::ExecutionGraph graph;
    std::vector<core::VertexId> stage_vertices;
};

/**
 * Pipelined deployment: one vertex per stage with the given core counts.
 *
 * @throws std::invalid_argument when counts do not match the stage count,
 * any count is zero, or the total exceeds 16.
 */
MicroserviceScenario make_e3_pipeline(
    E3Workload workload, const std::vector<std::uint32_t>& cores_per_stage);

/// Run-to-completion deployment over @p total_cores (the RR policy).
MicroserviceScenario make_e3_run_to_completion(E3Workload workload,
                                               std::uint32_t total_cores = 16);

/// The equal-partition allocation (remainder cores go to the front stages).
std::vector<std::uint32_t> equal_partition_alloc(E3Workload workload,
                                                 std::uint32_t total = 16);

} // namespace lognic::apps

#endif // LOGNIC_APPS_MICROSERVICES_HPP_
