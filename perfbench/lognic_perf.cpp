/**
 * @file
 * The lognic end-to-end benchmark. One process runs one workload
 * for a fixed host-time budget and prints, as its last stdout line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
 * it start with '#' and carry sample counts, the checkpoint filesystem,
 * and deterministic digests (same seed => same digest lines).
 *
 *   lognic_perf --workload <estimate_mix|explore_supervised|check_trials>
 *               --seed N --seconds S --trace <0|1> --workdir DIR
 *
 * Workloads (closed loops, one client; the seed changes the inputs, never
 * their size):
 *
 *   estimate_mix        the `lognic estimate` path, one request at a time:
 *                       scenario JSON -> io::load_scenario -> Model
 *                       throughput + latency -> core::render_report. The
 *                       request pool mixes check::generate_scenario DAGs
 *                       with the paper's app catalog at offered loads from
 *                       0.1x to 1.5x of the modelled capacity.
 *   explore_supervised  dse::supervise_exploration over the 6,400-config
 *                       NF-placement space (16 placements x 10 line rates
 *                       x 40 offered rates), checkpoint_every 8, frontier
 *                       DES promotion 2 reps x 5 ms, min(4, nproc) threads,
 *                       a fresh checkpoint directory per campaign.
 *   check_trials        ckpt::supervise_check campaigns of random trials
 *                       with the monotonicity ladder (4 sims per trial).
 *
 * --trace 0 prints the end-to-end metrics, measured with no layer timers
 * and reported in reference time (see the comment above
 * reference_unit_us). --trace 1 prints the per-layer metrics, in host
 * time: the same workload with timers
 * around the benchmark's own calls into io, core, sim, runner, dse, ckpt,
 * check and obs, plus small fixed probes of the layers that workload does
 * not call, so every layer metric is measured on every workload. The
 * metric names and units here must match BENCHMARK.json.
 */
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/apps/nvmeof.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/core/model.hpp"
#include "lognic/core/reporting.hpp"
#include "lognic/devices/liquidio.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/dse/supervise.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/obs/metrics.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/ssd/calibration.hpp"
#include "lognic/ssd/ssd_model.hpp"
#include "lognic/traffic/io_workload.hpp"

using namespace lognic;
namespace fs = std::filesystem;

namespace {

// --- sizes (fixed; the seed never changes them) -------------------------------

/// Set-up runs at least this often and for this long; setup_s is the
/// median of its repetitions.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.0;
/// Distinct estimate requests in the pool the client cycles through.
constexpr std::size_t kRequestPool = 4096;
/// Requests in the io/core probe of the workloads that do not estimate.
constexpr std::size_t kRequestProbe = 256;
/// Trials per check campaign (~8 s of host time, 13 generations).
constexpr std::uint64_t kTrialsPerCampaign = 100;
/// Campaign root seeds screened in set-up (the run cycles through those
/// it keeps), and in the check probe of the other workloads.
constexpr std::uint64_t kCampaignCandidates = 64;
constexpr std::uint64_t kProbeCandidates = 64;
/// Check campaigns are drawn within this relative band of the median
/// work of kCampaignWorkReference campaigns from a fixed root.
constexpr double kCampaignWorkBand = 0.05;
constexpr std::size_t kCampaignWorkReference = 63;
constexpr std::uint64_t kCampaignWorkRoot = 0x10941c;
/// check_trials traced run: campaigns measured layer by layer.
constexpr std::size_t kTracedCampaigns = 1;
/// Trials in the check probe of the other workloads' traced runs.
constexpr std::uint64_t kTrialProbe = 4;
/// Configs scored directly by dse::evaluate_config in a traced run.
constexpr std::size_t kEvaluateSample = 256;
/// Interleaved repetitions of the simulator tracing-overhead probe.
constexpr int kTraceOverheadReps = 40;
/// Host time of the io/core request probe in traced runs.
constexpr double kProbeSeconds = 0.5;
/// Requests per block of the interleaved span-overhead measurement.
constexpr std::size_t kSpanBlock = 128;

/// Nominal time of one host-speed reference unit; units timed between
/// long operations; estimate requests between two units (~4% overhead).
constexpr double kReferenceUnitUs = 1000.0;
constexpr int kBoundaryUnits = 25;
constexpr std::size_t kRequestsPerUnit = 256;

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-time samples of one kind of call, in microseconds.
struct Samples {
    std::vector<double> us;

    void add_seconds(double s) { us.push_back(s * 1e6); }
    double total_seconds() const
    {
        double t = 0.0;
        for (double v : us)
            t += v;
        return t * 1e-6;
    }
    /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
    double percentile(double q) const
    {
        if (us.empty())
            return 0.0;
        std::vector<double> v = us;
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(v.size())));
        const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
        std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
        return v[k];
    }
    double median() const { return percentile(0.5); }
    double p99() const { return percentile(0.99); }
};

/// Times @p fn into @p into when non-null; otherwise just calls it.
template <typename F>
decltype(auto)
timed(Samples* into, F&& fn)
{
    if (into == nullptr)
        return fn();
    const auto t0 = Clock::now();
    struct Record {
        Samples* into;
        Clock::time_point t0;
        ~Record() { into->add_seconds(seconds_since(t0)); }
    } record{into, t0};
    return fn();
}

/**
 * One reference unit: fixed host work that runs no lognic code (sort 16k
 * integers, then 1,024 ordered-map inserts of formatted integers, ~1 ms).
 * Returns its duration in microseconds.
 *
 * Reference time: on a shared VM, host speed drifts by 10-20% over seconds
 * to minutes, and the slowdown a thread sees depends on its vCPU (a probe
 * thread on another vCPU tracked it poorly). So the measuring thread
 * itself runs units between operations, and each host time is scaled by
 * kReferenceUnitUs over the median unit time around it. The drift cancels,
 * while a change to lognic's own speed shows in full, since the unit runs
 * none of its code.
 */
double
reference_unit_us()
{
    static const std::vector<std::uint32_t> base = [] {
        std::vector<std::uint32_t> v(1 << 14);
        std::uint64_t x = 88172645463325252ULL;
        for (auto& e : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x);
        }
        return v;
    }();
    const auto t0 = Clock::now();
    std::vector<std::uint32_t> v = base;
    std::sort(v.begin(), v.end());
    std::map<std::uint32_t, std::string> m;
    for (std::size_t i = 0; i < 1024; ++i)
        m[v[(i * 7919) % v.size()]] = std::to_string(v[i]);
    if (m.empty())
        std::abort();
    return seconds_since(t0) * 1e6;
}

/**
 * Times of long operations (campaigns, set-ups) in host and reference
 * time, each scaled by the host-speed factor measured around it.
 */
struct OpTimes {
    Samples host;
    Samples ref;

    void add(Clock::time_point start) { host.add_seconds(seconds_since(start)); }
    /// Factors from @p boundary_us: reference-unit medians taken before
    /// the first operation and after each one, on this thread.
    void normalize(const std::vector<double>& boundary_us)
    {
        for (std::size_t i = 0; i < host.us.size(); ++i)
            ref.us.push_back(host.us[i] * 2.0 * kReferenceUnitUs
                             / (boundary_us[i] + boundary_us[i + 1]));
    }
};

/// Median time of kBoundaryUnits reference units run on this thread.
double
reference_median_us()
{
    Samples s;
    for (int i = 0; i < kBoundaryUnits; ++i)
        s.us.push_back(reference_unit_us());
    return s.median();
}

std::string
hex(std::uint64_t v)
{
    return io::u64_to_hex(v);
}

/// Order-sensitive running digest of strings (FNV-1a chained).
struct Digest {
    std::uint64_t value{0xcbf29ce484222325ULL};
    void add(const std::string& s)
    {
        value = io::fnv1a64(hex(value) + s);
    }
};

/// Named metric values with units, printed in a fixed order.
struct MetricSet {
    std::map<std::string, std::pair<double, std::string>> values;
    void set(const std::string& name, double v, const std::string& unit)
    {
        values[name] = {v, unit};
    }
};

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
filesystem_name(const std::string& path)
{
    struct statfs st {};
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/3/4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
    }
    }
}

std::size_t
explore_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/**
 * Set-up repeated at least kSetupRepeats times and kSetupSeconds; returns
 * the last result and the median set-up time in reference seconds. Host
 * speed is sampled on this thread between repetitions, since a set-up may
 * occupy every vCPU.
 */
template <typename F>
auto
repeated_setup(F&& build, double& setup_s)
{
    OpTimes reps;
    std::vector<double> boundary_us{reference_median_us()};
    const auto start = Clock::now();
    auto t0 = Clock::now();
    auto out = build();
    reps.add(t0);
    boundary_us.push_back(reference_median_us());
    while (reps.host.us.size() < kSetupRepeats
           || seconds_since(start) < kSetupSeconds) {
        t0 = Clock::now();
        out = build();
        reps.add(t0);
        boundary_us.push_back(reference_median_us());
    }
    reps.normalize(boundary_us);
    setup_s = reps.ref.median() * 1e-6;
    return out;
}

// --- estimate requests (io + core) --------------------------------------------

struct CatalogEntry {
    std::string name;
    core::HardwareModel hw;
    core::ExecutionGraph graph;
    Bytes packet;
    Bandwidth capacity;
};

/**
 * The paper's app catalog with each entry's modelled capacity at its
 * packet size (capacity is load-independent, so offered loads can be set
 * as fractions of it).
 */
std::vector<CatalogEntry>
build_catalog()
{
    std::vector<CatalogEntry> out;
    const auto add = [&](std::string name, core::HardwareModel hw,
                         core::ExecutionGraph graph, Bytes packet) {
        const core::Model model(hw);
        const Bandwidth capacity =
            model
                .throughput(graph, core::TrafficProfile::fixed(
                                       packet, Bandwidth::from_gbps(1.0)))
                .capacity;
        if (!(capacity.gbps() > 0.0) || !std::isfinite(capacity.gbps()))
            throw std::runtime_error("catalog entry '" + name
                                     + "' has no finite capacity");
        out.push_back({std::move(name), std::move(hw), std::move(graph),
                       packet, capacity});
    };
    for (const auto kernel : devices::liquidio_kernels())
        for (const std::uint32_t cores : {1u, 2u, 4u, 8u, 12u, 16u}) {
            auto s = apps::make_inline_accel(kernel, cores);
            add(std::string("inline-") + devices::to_string(kernel) + "-"
                    + std::to_string(cores),
                std::move(s.hw), std::move(s.graph), Bytes{1500.0});
        }
    int placement = 0;
    for (const auto& p : apps::all_placements()) {
        auto s = apps::make_nf_chain(p);
        add("nf-" + std::to_string(placement++), std::move(s.hw),
            std::move(s.graph), Bytes{1500.0});
    }
    for (const auto w : apps::e3_workloads()) {
        auto pipe = apps::make_e3_pipeline(w, apps::equal_partition_alloc(w));
        add(std::string("e3-pipe-") + apps::to_string(w), std::move(pipe.hw),
            std::move(pipe.graph), apps::e3_request_size());
        auto rtc = apps::make_e3_run_to_completion(w);
        add(std::string("e3-rtc-") + apps::to_string(w), std::move(rtc.hw),
            std::move(rtc.graph), apps::e3_request_size());
    }
    const ssd::SsdGroundTruth drive;
    for (const auto& w : {traffic::random_read_4k(), traffic::random_read_128k(),
                          traffic::sequential_write_4k()}) {
        const auto calib =
            ssd::calibrate(drive.characterize(w, 14), w.block_size);
        auto s = apps::make_nvmeof_target(calib, w);
        add("nvmeof-" + w.name, std::move(s.hw), std::move(s.graph),
            w.block_size);
    }
    for (const double a2 : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0}) {
        auto s = apps::make_panic_parallel_chain(a2);
        add("panic-parallel-" + std::to_string(static_cast<int>(a2)),
            std::move(s.hw), std::move(s.graph), Bytes{512.0});
    }
    for (const double ip3 : {0.2, 0.5, 0.8})
        for (std::uint32_t d = 1; d <= 8; ++d) {
            auto s = apps::make_panic_hybrid(ip3, d);
            add("panic-hybrid-" + std::to_string(d), std::move(s.hw),
                std::move(s.graph), Bytes{1500.0});
        }
    return out;
}

struct RequestPool {
    std::vector<std::string> texts;
    std::size_t generated{0};
    std::uint64_t generate_failures{0};
    Samples generate_us; ///< check::generate_scenario calls
};

/**
 * @p size scenario documents: half from check::generate_scenario (seeds
 * the generator cannot build are skipped and counted), half from the app
 * catalog at an offered load of 0.1x-1.5x its capacity.
 */
RequestPool
build_requests(std::uint64_t seed, std::size_t size)
{
    const std::vector<CatalogEntry> catalog = build_catalog();
    check::CheckRng rng(runner::derive_seed(seed, 0x5e));
    RequestPool pool;
    pool.texts.reserve(size);
    std::uint64_t next_generator_seed = 0;
    while (pool.texts.size() < size) {
        if (rng.bernoulli(0.5)) {
            const std::uint64_t gseed =
                runner::derive_seed(seed, next_generator_seed++);
            try {
                const auto gen = timed(&pool.generate_us, [&] {
                    return check::generate_scenario(gseed);
                });
                pool.texts.push_back(io::save_scenario(gen.scenario));
                ++pool.generated;
            } catch (const std::exception&) {
                ++pool.generate_failures;
            }
        } else {
            const CatalogEntry& e = catalog[rng.uniform_u32(
                0, static_cast<std::uint32_t>(catalog.size() - 1))];
            const double load = rng.uniform(0.1, 1.5);
            const io::Scenario sc{
                e.hw, e.graph,
                core::TrafficProfile::fixed(
                    e.packet, Bandwidth{e.capacity.bits_per_sec() * load})};
            pool.texts.push_back(io::save_scenario(sc));
        }
    }
    return pool;
}

/// Per-call timers of one request's layers (traced runs only).
struct RequestSpans {
    Samples parse, throughput, latency, report;
};

struct Reply {
    core::Report report;
    std::string text;
    std::size_t classes{0};
    std::size_t paths{0};
};

/// One `lognic estimate` request.
Reply
estimate(const std::string& request, RequestSpans* spans)
{
    const io::Scenario sc = timed(spans ? &spans->parse : nullptr,
                                  [&] { return io::load_scenario(request); });
    const core::Model model(sc.hw);
    Reply r;
    r.report.throughput = timed(spans ? &spans->throughput : nullptr, [&] {
        return model.throughput(sc.graph, sc.traffic);
    });
    r.report.latency = timed(spans ? &spans->latency : nullptr, [&] {
        return model.latency(sc.graph, sc.traffic);
    });
    r.text = timed(spans ? &spans->report : nullptr, [&] {
        return core::render_report(r.report, sc.traffic);
    });
    r.classes = sc.traffic.classes().size();
    for (const auto& c : r.report.latency.per_class)
        r.paths += c.paths.size();
    return r;
}

/// Finite figures, achieved <= capacity, and mean <= p99 per class.
bool
reply_ok(const Reply& r)
{
    const auto& t = r.report.throughput;
    const auto& l = r.report.latency;
    const double cap = t.capacity.bits_per_sec();
    const double ach = t.achieved.bits_per_sec();
    if (!std::isfinite(cap) || !std::isfinite(ach) || ach < 0.0
        || ach > cap * (1.0 + 1e-9))
        return false;
    if (!std::isfinite(l.mean.seconds()) || l.mean.seconds() <= 0.0
        || l.per_class.empty() || r.text.empty())
        return false;
    for (const auto& c : l.per_class) {
        const double mean = c.mean.seconds();
        const double p99 = c.p99.seconds();
        if (!std::isfinite(mean) || !std::isfinite(p99)
            || mean > p99 * (1.0 + 1e-9))
            return false;
    }
    return true;
}

/// One untimed pass over the pool: validity, digest, and shape counts.
struct PoolCheck {
    std::uint64_t failed{0};
    Digest digest;
    std::uint64_t bytes{0};
    std::uint64_t classes{0};
    std::uint64_t paths{0};
};

PoolCheck
check_pool(const RequestPool& pool)
{
    PoolCheck out;
    for (const std::string& text : pool.texts) {
        out.bytes += text.size();
        try {
            const Reply r = estimate(text, nullptr);
            if (!reply_ok(r))
                ++out.failed;
            out.digest.add(r.text);
            out.classes += r.classes;
            out.paths += r.paths;
        } catch (const std::exception& e) {
            ++out.failed;
            out.digest.add(std::string("error: ") + e.what());
        }
    }
    return out;
}

/**
 * io/core layer metrics from traced requests over @p pool (whose untimed
 * pass is @p shape) for at least one pass and @p budget_s seconds. Blocks
 * of untraced and traced requests alternate, so obs.span_overhead
 * compares like with like.
 */
void
measure_requests(const RequestPool& pool, const PoolCheck& shape,
                 double budget_s, MetricSet& m)
{
    RequestSpans spans;
    double plain_s = 0.0;
    double traced_s = 0.0;
    std::size_t traced = 0;
    std::size_t next = 0;
    const auto t0 = Clock::now();
    do {
        for (const bool trace : {false, true}) {
            const auto b0 = Clock::now();
            for (std::size_t i = 0; i < kSpanBlock; ++i) {
                const std::string& text = pool.texts[(next + i)
                                                     % pool.texts.size()];
                (void)estimate(text, trace ? &spans : nullptr);
            }
            (trace ? traced_s : plain_s) += seconds_since(b0);
        }
        next += kSpanBlock;
        traced += kSpanBlock;
    } while (traced < pool.texts.size() || seconds_since(t0) < budget_s);

    m.set("io.parse_us", spans.parse.median(), "us");
    m.set("io.parse_p99_us", spans.parse.p99(), "us");
    m.set("io.report_us", spans.report.median(), "us");
    m.set("io.report_p99_us", spans.report.p99(), "us");
    m.set("io.requests", static_cast<double>(spans.parse.us.size()), "count");
    m.set("io.bytes_in", static_cast<double>(shape.bytes), "bytes");
    m.set("core.throughput_us", spans.throughput.median(), "us");
    m.set("core.throughput_p99_us", spans.throughput.p99(), "us");
    m.set("core.latency_us", spans.latency.median(), "us");
    m.set("core.latency_p99_us", spans.latency.p99(), "us");
    m.set("core.classes", static_cast<double>(shape.classes), "count");
    m.set("core.paths", static_cast<double>(shape.paths), "count");
    m.set("obs.span_overhead", traced_s / plain_s, "ratio");
}

// --- exploration (dse + runner + ckpt) ----------------------------------------

/**
 * The NF-placement exploration as a `lognic explore` document: placement
 * x @p line_rates line rates (10 Gb/s steps) x @p offered_rates offered
 * rates (2.5 Gb/s steps), throughput vs p99, DES promotion of the
 * frontier (2 reps x 5 ms). The seed is the spec's seed, from which every
 * DES replication seed derives: another seed gives other DES sample paths
 * over the same space and frontier, so the campaign's work keeps its size
 * (shifting the offered rates instead moved the frontier between 84 and
 * 92 entries, and the campaign time with it).
 */
std::string
explore_document(std::uint64_t seed, int line_rates, int offered_rates)
{
    io::Json line{io::JsonArray{}};
    for (int i = 1; i <= line_rates; ++i)
        line.push_back(io::Json(10.0 * i));
    io::Json offered{io::JsonArray{}};
    for (int i = 1; i <= offered_rates; ++i)
        offered.push_back(io::Json(2.5 * i));
    io::Json line_knob;
    line_knob.set("path", io::Json("line_rate_gbps"));
    line_knob.set("values", std::move(line));
    io::Json offered_knob;
    offered_knob.set("path", io::Json("traffic.rate_gbps"));
    offered_knob.set("values", std::move(offered));
    io::Json knobs{io::JsonArray{}};
    knobs.push_back(io::Json("placement.nf_chain"));
    knobs.push_back(std::move(line_knob));
    knobs.push_back(std::move(offered_knob));

    io::Json doc = io::Json::parse(dse::sample_explore_spec());
    io::Json d = doc.at("dse");
    d.set("knobs", std::move(knobs));
    d.set("seed", io::Json(hex(seed)));
    doc.set("dse", std::move(d));
    return doc.dump(-1);
}

dse::ExploreSpec
build_explore(const std::string& document)
{
    dse::ExploreSpec spec =
        dse::explore_spec_from_json(io::Json::parse(document));
    spec.options.threads = explore_threads();
    return spec;
}

std::string
frontier_json(const dse::FrontierReport& r)
{
    return dse::frontier_report_to_json(r).dump(2);
}

double
median_of(std::vector<double> v)
{
    Samples s;
    s.us = std::move(v);
    return s.median();
}

/// Median |model - DES| / DES over DES-validated frontier members.
std::pair<double, double>
frontier_errors(const dse::FrontierReport& r)
{
    std::vector<double> tput;
    std::vector<double> p99;
    for (const auto& e : r.frontier)
        if (e.des_validated && e.des.ok) {
            tput.push_back(std::fabs(e.des.throughput_disagreement));
            p99.push_back(std::fabs(e.des.p99_disagreement));
        }
    return {median_of(tput), median_of(p99)};
}

std::uint64_t
des_attempted(const dse::FrontierReport& r)
{
    std::uint64_t n = 0;
    for (const auto& e : r.frontier)
        n += e.des_validated ? 1 : 0;
    return n;
}

std::uint64_t
des_failed(const dse::FrontierReport& r)
{
    std::uint64_t n = 0;
    for (const auto& e : r.frontier)
        n += (e.des_validated && !e.des.ok) ? 1 : 0;
    return n;
}

ckpt::SupervisorOptions
fresh_checkpoint(const fs::path& dir)
{
    fs::remove_all(dir);
    ckpt::SupervisorOptions sup;
    sup.dir = dir.string();
    return sup;
}

/// Encode/save timings of a replayed publication sequence.
struct PublishStats {
    Samples encode;
    Samples save;
    std::uint64_t publications{0};
    std::uint64_t bytes{0};
    double seconds() const
    {
        return encode.total_seconds() + save.total_seconds();
    }
};

/**
 * Re-publish a finished campaign's journal the way the supervisor did:
 * records are added back one at a time (in key order) and every
 * @p every-th record, plus a final flush, encodes the whole journal with
 * its fingerprint and saves it as a new generation. @p add(i) records the
 * i-th unit; @p encode() returns the journal document.
 */
void
replay_publications(const fs::path& dir, const std::string& kind,
                    const io::Json& fingerprint, std::size_t units,
                    std::uint64_t every, const std::function<void(std::size_t)>& add,
                    const std::function<io::Json()>& encode, PublishStats& stats)
{
    fs::remove_all(dir);
    ckpt::CheckpointStore store(dir.string(), kind);
    const auto publish = [&] {
        const std::string payload = timed(&stats.encode, [&] {
            io::Json doc;
            doc.set("fingerprint", fingerprint);
            doc.set("journal", encode());
            return doc.dump(-1);
        });
        timed(&stats.save, [&] { return store.save(payload); });
        ++stats.publications;
        stats.bytes += payload.size();
    };
    for (std::size_t i = 0; i < units; ++i) {
        add(i);
        if ((i + 1) % every == 0)
            publish();
    }
    publish();
    fs::remove_all(dir);
}

/// The newest generation's {"fingerprint", "journal"} document.
io::Json
latest_checkpoint(const fs::path& dir, const std::string& kind)
{
    const ckpt::CheckpointStore store(dir.string(), kind);
    const auto loaded = store.load_latest();
    if (!loaded)
        throw std::runtime_error("no checkpoint generation in "
                                 + dir.string());
    return io::Json::parse(loaded->payload);
}

/**
 * dse/runner/ckpt layer metrics of one exploration: a supervised campaign
 * (its publications replayed for encode/save timings), unsupervised runs
 * with DES promotion on and off, and direct evaluate_config calls on a
 * seeded sample of configs. Returns whether the supervised frontier is
 * byte-identical to the unsupervised one.
 */
bool
measure_explore(const dse::ExploreSpec& spec, std::uint64_t seed,
                const fs::path& work, bool ckpt_metrics, MetricSet& m)
{
    const fs::path dir = work / "explore-traced";
    const auto sup = fresh_checkpoint(dir);
    const auto s0 = Clock::now();
    const dse::SupervisedExploration supervised = dse::supervise_exploration(
        spec.space, spec.objectives, spec.constraints, spec.options, sup);
    const double supervised_s = seconds_since(s0);

    obs::MetricsRegistry registry;
    const auto t_on = Clock::now();
    const dse::FrontierReport on = dse::explore(
        spec.space, spec.objectives, spec.constraints, spec.options,
        &registry);
    const double on_s = seconds_since(t_on);
    dse::ExploreOptions off_opts = spec.options;
    off_opts.des.enabled = false;
    const auto t_off = Clock::now();
    (void)dse::explore(spec.space, spec.objectives, spec.constraints,
                       off_opts);
    const double off_s = seconds_since(t_off);

    Samples evaluate;
    check::CheckRng rng(runner::derive_seed(seed, 0xe7a));
    for (std::size_t i = 0; i < kEvaluateSample; ++i) {
        dse::Config c(spec.space.size());
        for (std::size_t k = 0; k < c.size(); ++k)
            c[k] = rng.uniform_u32(
                0, static_cast<std::uint32_t>(
                       spec.space.knob(k).values.size() - 1));
        (void)timed(&evaluate, [&] {
            return dse::evaluate_config(spec.space, c, spec.objectives,
                                        spec.constraints);
        });
    }

    const auto snap = registry.snapshot();
    const auto [tput_err, p99_err] = frontier_errors(on);
    m.set("dse.requests", static_cast<double>(on.requests), "count");
    m.set("dse.solves", static_cast<double>(on.solves), "count");
    m.set("dse.pruned", static_cast<double>(on.pruned), "count");
    m.set("dse.solve_ratio",
          on.requests ? static_cast<double>(on.solves)
                            / static_cast<double>(on.requests)
                      : 0.0,
          "ratio");
    m.set("dse.frontier_size", static_cast<double>(on.frontier.size()),
          "count");
    m.set("dse.des_validations",
          static_cast<double>(snap.counter_or_zero("dse.des.validated")),
          "count");
    m.set("dse.frontier_tput_err", tput_err, "ratio");
    m.set("dse.frontier_p99_err", p99_err, "ratio");
    m.set("dse.search_s", off_s, "s");
    m.set("dse.evaluate_us", evaluate.median(), "us");
    m.set("dse.evaluate_p99_us", evaluate.p99(), "us");
    m.set("dse.evaluate_calls", static_cast<double>(evaluate.us.size()),
          "count");
    m.set("runner.des_promotion_s", on_s - off_s, "s");
    std::printf("# run explore traced: supervised %.3f s, unsupervised "
                "%.3f s (DES on) %.3f s (DES off), frontier %zu, solves "
                "%llu\n",
                supervised_s, on_s, off_s, on.frontier.size(),
                static_cast<unsigned long long>(on.solves));
    const bool identical =
        frontier_json(supervised.report) == frontier_json(on);
    if (!ckpt_metrics) {
        fs::remove_all(dir);
        return identical;
    }

    const io::Json doc = latest_checkpoint(dir, dse::kExploreCheckpointKind);
    fs::remove_all(dir);
    const io::JsonArray& evals = doc.at("journal").at("evals").as_array();
    const io::JsonArray& des = doc.at("journal").at("des").as_array();
    dse::ExploreJournal journal;
    PublishStats stats;
    replay_publications(
        work / "explore-replay", dse::kExploreCheckpointKind,
        doc.at("fingerprint"), evals.size() + des.size(),
        sup.checkpoint_every,
        [&](std::size_t i) {
            if (i < evals.size())
                journal.record_eval(evals[i].at("key").as_string(),
                                    dse::evaluation_from_json(evals[i]));
            else
                journal.record_des(
                    des[i - evals.size()].at("key").as_string(),
                    dse::des_validation_from_json(des[i - evals.size()]));
        },
        [&] { return journal.to_json(); }, stats);
    if (stats.publications != supervised.checkpoints)
        throw std::runtime_error("explore replay published "
                                 + std::to_string(stats.publications)
                                 + " generations, the campaign "
                                 + std::to_string(supervised.checkpoints));
    m.set("ckpt.publications", static_cast<double>(supervised.checkpoints),
          "count");
    m.set("ckpt.bytes_published", static_cast<double>(stats.bytes), "bytes");
    m.set("ckpt.publish_s", stats.seconds(), "s");
    m.set("ckpt.encode_us", stats.encode.median(), "us");
    m.set("ckpt.encode_p99_us", stats.encode.p99(), "us");
    m.set("ckpt.save_us", stats.save.median(), "us");
    m.set("ckpt.save_p99_us", stats.save.p99(), "us");
    m.set("ckpt.overhead", stats.seconds() / on_s, "ratio");
    return identical;
}

// --- check campaigns (check + sim + ckpt) --------------------------------------

struct CampaignSeeds {
    std::vector<std::uint64_t> roots;
    std::uint64_t generate_failures{0}; ///< roots with an unbuildable trial
    std::uint64_t off_size{0};          ///< roots outside the work band
    Samples generate_us;
};

/**
 * Simulated work of a campaign: offered packets per second of its base
 * runs times graph vertices, summed over the trials (host time follows it
 * closely: per-trial correlation ~0.95). 0 when the generator cannot
 * build one of the trial scenarios.
 */
double
campaign_work(std::uint64_t root, std::uint64_t trials, Samples* generate_us)
{
    double work = 0.0;
    for (std::uint64_t t = 0; t < trials; ++t) {
        try {
            const auto gen = timed(generate_us, [&] {
                return check::generate_scenario(runner::derive_seed(root, t));
            });
            const core::TrafficProfile& traffic = gen.scenario.traffic;
            work += traffic.ingress_bandwidth().bytes_per_sec()
                / traffic.mean_packet_size().bytes()
                * static_cast<double>(gen.scenario.graph.vertex_count());
        } catch (const std::exception&) {
            return 0.0;
        }
    }
    return work;
}

/**
 * Screens @p candidates campaign root seeds and keeps those whose trial
 * scenarios the generator can all build (roots with a failing trial are
 * skipped and counted) and whose work lies within kCampaignWorkBand of
 * the median campaign of a fixed, seed-independent stream. Another seed
 * thus draws other campaigns of the same size, so trials_per_s does not
 * follow the seed, and set-up does the same work for every seed.
 */
CampaignSeeds
screen_campaigns(std::uint64_t seed, std::uint64_t candidates,
                 std::uint64_t trials)
{
    std::vector<double> reference;
    for (std::uint64_t c = 0; reference.size() < kCampaignWorkReference; ++c)
        if (const double w = campaign_work(
                runner::derive_seed(kCampaignWorkRoot, c), trials, nullptr);
            w > 0.0)
            reference.push_back(w);
    const double target = median_of(reference);

    CampaignSeeds out;
    for (std::uint64_t c = 0; c < candidates; ++c) {
        const std::uint64_t root = runner::derive_seed(seed ^ 0xc4ec, c);
        const double w = campaign_work(root, trials, &out.generate_us);
        if (w == 0.0)
            ++out.generate_failures;
        else if (std::fabs(w - target) > kCampaignWorkBand * target)
            ++out.off_size;
        else
            out.roots.push_back(root);
    }
    if (out.roots.size() < kTracedCampaigns)
        throw std::runtime_error("too few check campaigns of the reference "
                                 "size");
    return out;
}

check::CheckOptions
campaign_options(std::uint64_t root, std::uint64_t trials)
{
    check::CheckOptions copts;
    copts.trials = trials;
    copts.seed = root;
    return copts;
}

/**
 * A well-formed campaign report: every trial ran, each at least its 4
 * sims (shrinking a failing trial runs more), and every violation is
 * attributed to a reported failure. Violations themselves are the
 * harness's findings, not benchmark failures; they are printed.
 */
bool
campaign_ok(const check::CheckReport& r, std::uint64_t trials)
{
    std::uint64_t attributed = 0;
    for (const auto& f : r.failures)
        attributed += f.violations.size();
    return r.trials == trials && r.sims_run >= 4 * trials
        && attributed == r.violations;
}

/**
 * check/sim/ckpt layer metrics over @p campaigns supervised campaigns of
 * @p trials trials: each campaign's publications are replayed for
 * encode/save timings, then every trial is re-run through the
 * benchmark's own calls into check and sim (see below). Returns whether
 * every campaign report was well-formed.
 */
bool
measure_trials(const CampaignSeeds& seeds, std::size_t campaigns,
               std::uint64_t trials, const fs::path& work, bool ckpt_metrics,
               MetricSet& m)
{
    PublishStats stats;
    std::uint64_t publications = 0;
    std::uint64_t violations = 0;
    bool well_formed = true;
    for (std::size_t c = 0; c < campaigns; ++c) {
        const fs::path dir = work / ("check-traced-" + std::to_string(c));
        const auto sup = fresh_checkpoint(dir);
        const auto supervised = ckpt::supervise_check(
            campaign_options(seeds.roots[c], trials), {}, sup);
        publications += supervised.checkpoints;
        violations += supervised.report.violations;
        well_formed = well_formed && campaign_ok(supervised.report, trials);
        if (!ckpt_metrics) {
            fs::remove_all(dir);
            continue;
        }
        const io::Json doc = latest_checkpoint(dir, "check");
        fs::remove_all(dir);
        const io::JsonArray& units = doc.at("journal").at("units").as_array();
        ckpt::CheckJournal journal;
        replay_publications(
            work / "check-replay", "check", doc.at("fingerprint"),
            units.size(), sup.checkpoint_every,
            [&](std::size_t i) {
                journal.record(units[i].at("key").as_string(),
                               ckpt::trial_outcome_from_json(units[i]));
            },
            [&] { return journal.to_json(); }, stats);
    }

    // Each trial as check::check_scenario runs it, call by call: the base
    // simulation, the invariant/model/closed-form oracles on its result,
    // and the monotonicity ladder's three simulations.
    Samples generate;
    double sim_s = 0.0;
    double oracle_s = 0.0;
    std::uint64_t trials_run = 0;
    std::uint64_t sim_runs = 0;
    std::uint64_t events = 0;
    std::uint64_t oracle_violations = 0;
    for (std::size_t c = 0; c < campaigns; ++c) {
        const check::CheckOptions copts =
            campaign_options(seeds.roots[c], trials);
        for (std::uint64_t t = 0; t < trials; ++t, ++trials_run) {
            const std::uint64_t trial_seed =
                runner::derive_seed(copts.seed, t);
            const auto gen = timed(&generate, [&] {
                return check::generate_scenario(trial_seed);
            });
            const io::Scenario& sc = gen.scenario;
            sim::SimOptions opts;
            opts.duration = copts.duration;
            opts.warmup_fraction = copts.warmup_fraction;
            opts.seed = runner::derive_seed(trial_seed, 1);
            const auto simulate = [&](double load) {
                core::TrafficProfile traffic = sc.traffic;
                traffic.set_ingress_bandwidth(Bandwidth{
                    sc.traffic.ingress_bandwidth().bits_per_sec() * load});
                const auto s0 = Clock::now();
                sim::SimResult r =
                    sim::simulate(sc.hw, sc.graph, traffic, opts);
                sim_s += seconds_since(s0);
                ++sim_runs;
                events += r.events_executed;
                return r;
            };
            const sim::SimResult base = simulate(1.0);
            const auto o0 = Clock::now();
            oracle_violations +=
                check::check_invariants(sc, opts, base, copts.invariants)
                    .size()
                + check::check_model_vs_sim(sc, base, copts.conformance)
                      .size()
                + check::check_closed_forms(sc, opts, base,
                                            copts.conformance)
                      .size();
            oracle_s += seconds_since(o0);
            for (const double load : {0.6, 1.0, 1.4})
                (void)simulate(load);
        }
    }
    const double trial_s = generate.total_seconds() + sim_s + oracle_s;

    m.set("check.trials", static_cast<double>(trials_run), "count");
    m.set("check.violations",
          static_cast<double>(violations + oracle_violations), "count");
    m.set("check.generate_us", generate.median(), "us");
    m.set("check.generate_p99_us", generate.p99(), "us");
    m.set("check.oracle_s", oracle_s, "s");
    m.set("sim.runs", static_cast<double>(sim_runs), "count");
    m.set("sim.events", static_cast<double>(events), "count");
    m.set("sim.run_s", sim_s, "s");
    m.set("sim.events_per_s", static_cast<double>(events) / sim_s, "1/s");
    if (!ckpt_metrics)
        return well_formed;
    m.set("ckpt.publications", static_cast<double>(publications), "count");
    m.set("ckpt.bytes_published", static_cast<double>(stats.bytes), "bytes");
    m.set("ckpt.publish_s", stats.seconds(), "s");
    m.set("ckpt.encode_us", stats.encode.median(), "us");
    m.set("ckpt.encode_p99_us", stats.encode.p99(), "us");
    m.set("ckpt.save_us", stats.save.median(), "us");
    m.set("ckpt.save_p99_us", stats.save.p99(), "us");
    m.set("ckpt.overhead", stats.seconds() / trial_s, "ratio");
    return well_formed;
}

// --- obs: simulator tracing overhead ------------------------------------------

/**
 * sim::simulate of 1 ms of the inline-accel MD5 scenario with a
 * ChromeTraceWriter sampling every packet and every 64th packet, against
 * no sink; interleaved repetitions, median time ratios.
 */
void
measure_trace_overhead(MetricSet& m)
{
    const auto sc = apps::make_inline_accel(devices::LiquidIoKernel::kMd5, 12);
    const auto traffic =
        core::TrafficProfile::fixed(Bytes{1500.0}, Bandwidth::from_gbps(25.0));
    Samples none;
    Samples x1;
    Samples x64;
    for (int rep = 0; rep < kTraceOverheadReps; ++rep)
        for (const std::uint64_t sample : {0u, 1u, 64u}) {
            obs::ChromeTraceWriter writer;
            sim::SimOptions opts;
            opts.duration = 0.001;
            if (sample != 0) {
                opts.trace.sink = &writer;
                opts.trace.sample_every = sample;
            }
            Samples& into = sample == 0 ? none : sample == 1 ? x1 : x64;
            (void)timed(&into, [&] {
                return sim::simulate(sc.hw, sc.graph, traffic, opts);
            });
        }
    m.set("obs.trace_overhead_x1", x1.median() / none.median(), "ratio");
    m.set("obs.trace_overhead_x64", x64.median() / none.median(), "ratio");
}

// --- workloads ----------------------------------------------------------------

/**
 * The end-to-end metrics in reference time (see reference_unit_us): @p ops
 * operations in @p busy_s host seconds (@p busy_ref_s reference seconds)
 * with per-operation times @p op (@p op_ref). The host-time figures go to
 * a `# run` line.
 */
void
set_end_to_end(MetricSet& m, double setup_s, double ops, double busy_s,
               double busy_ref_s, const Samples& op, const Samples& op_ref)
{
    std::printf("# run host ops_per_s=%.6g op_p50_ms=%.6g op_p99_ms=%.6g "
                "host_factor=%.4f\n",
                ops / busy_s, op.median() * 1e-3, op.p99() * 1e-3,
                busy_ref_s / busy_s);
    m.set("setup_s", setup_s, "s");
    m.set("ops_per_s", ops / busy_ref_s, "1/s");
    m.set("op_p50_ms", op_ref.median() * 1e-3, "ms");
    m.set("op_p99_ms", op_ref.p99() * 1e-3, "ms");
}

struct Outcome {
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    bool correct{true};
    MetricSet metrics;
};

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    fs::path workdir;
};

/// Layer metrics every traced run reports the same way.
void
common_layers(MetricSet& m, std::uint64_t generate_failures)
{
    m.set("check.generate_failures", static_cast<double>(generate_failures),
          "count");
    measure_trace_overhead(m);
}

Outcome
run_estimate(const Args& a)
{
    Outcome out;
    double setup_s = 0.0;
    const RequestPool pool = repeated_setup(
        [&] { return build_requests(a.seed, kRequestPool); }, setup_s);
    std::printf("# inputs estimate_mix size=%zu generated=%zu catalog=%zu "
                "generator_seeds_skipped=%llu\n",
                pool.texts.size(), pool.generated,
                pool.texts.size() - pool.generated,
                static_cast<unsigned long long>(pool.generate_failures));
    const PoolCheck check = check_pool(pool);
    std::printf("# digest estimate_mix reports=%s bytes_in=%llu paths=%llu "
                "classes=%llu\n",
                hex(check.digest.value).c_str(),
                static_cast<unsigned long long>(check.bytes),
                static_cast<unsigned long long>(check.paths),
                static_cast<unsigned long long>(check.classes));

    if (a.trace) {
        MetricSet& m = out.metrics;
        measure_requests(pool, check, a.seconds * 0.5, m);
        const CampaignSeeds seeds =
            screen_campaigns(a.seed, kProbeCandidates, kTrialProbe);
        const bool trials_ok =
            measure_trials(seeds, 1, kTrialProbe, a.workdir, true, m);
        // This workload's generator calls are the pool's, in set-up.
        m.set("check.generate_us", pool.generate_us.median(), "us");
        m.set("check.generate_p99_us", pool.generate_us.p99(), "us");
        const bool identical = measure_explore(
            build_explore(explore_document(a.seed, 2, 4)), a.seed, a.workdir,
            false, m);
        common_layers(m, pool.generate_failures);
        out.attempted = pool.texts.size();
        out.failed = check.failed;
        out.correct = check.failed == 0 && trials_ok && identical;
        return out;
    }

    // A reference unit runs every kRequestsPerUnit requests; each request
    // is scaled by the median unit of its one-second window.
    Samples latency;
    std::vector<std::size_t> window_starts;
    std::vector<std::pair<std::size_t, double>> units; ///< (request, us)
    std::uint64_t failed = 0;
    auto window_t0 = Clock::now();
    const auto t0 = window_t0;
    for (std::size_t i = 0; seconds_since(t0) < a.seconds; ++i) {
        if (window_starts.empty() || seconds_since(window_t0) >= 1.0) {
            window_starts.push_back(i);
            window_t0 = Clock::now();
        }
        if (i % kRequestsPerUnit == 0)
            units.emplace_back(i, reference_unit_us());
        const std::string& text = pool.texts[i % pool.texts.size()];
        const auto r0 = Clock::now();
        try {
            const Reply r = estimate(text, nullptr);
            latency.add_seconds(seconds_since(r0));
            failed += reply_ok(r) ? 0 : 1;
        } catch (const std::exception&) {
            latency.add_seconds(seconds_since(r0));
            ++failed;
        }
    }
    const double elapsed = seconds_since(t0);
    window_starts.push_back(latency.us.size());
    Samples all_units;
    for (const auto& unit : units)
        all_units.us.push_back(unit.second);
    Samples latency_ref;
    for (std::size_t w = 0; w + 1 < window_starts.size(); ++w) {
        Samples in;
        for (const auto& [request, us] : units)
            if (request >= window_starts[w] && request < window_starts[w + 1])
                in.us.push_back(us);
        const double f =
            kReferenceUnitUs / (in.us.empty() ? all_units : in).median();
        for (std::size_t i = window_starts[w]; i < window_starts[w + 1]; ++i)
            latency_ref.us.push_back(latency.us[i] * f);
    }
    std::printf("# run estimate_mix requests=%zu seconds=%.3f "
                "p99_samples=%zu\n",
                latency.us.size(), elapsed, latency.us.size());
    out.attempted = latency.us.size();
    out.failed = failed + check.failed;
    out.correct = out.failed == 0;
    set_end_to_end(out.metrics, setup_s,
                   static_cast<double>(latency.us.size()),
                   latency.total_seconds(), latency_ref.total_seconds(),
                   latency, latency_ref);
    return out;
}

Outcome
run_explore(const Args& a)
{
    Outcome out;
    const std::string document = explore_document(a.seed, 10, 40);
    // Set-up parses the spec into a space and runs the reference (which
    // builds the pruner): an unsupervised exploration of the same spec,
    // which every supervised campaign's frontier must match byte for byte.
    struct Setup {
        dse::ExploreSpec spec;
        dse::FrontierReport reference;
    };
    double setup_s = 0.0;
    const Setup setup = repeated_setup(
        [&] {
            dse::ExploreSpec spec = build_explore(document);
            dse::FrontierReport reference =
                dse::explore(spec.space, spec.objectives, spec.constraints,
                             spec.options);
            return Setup{std::move(spec), std::move(reference)};
        },
        setup_s);
    const dse::ExploreSpec& spec = setup.spec;
    const dse::FrontierReport& reference = setup.reference;
    std::printf("# inputs explore_supervised size=%llu threads=%zu "
                "ckpt_fs=%s\n",
                static_cast<unsigned long long>(spec.space.combinations()),
                spec.options.threads,
                filesystem_name(a.workdir.string()).c_str());
    const std::string reference_json = frontier_json(reference);
    const auto [tput_err, p99_err] = frontier_errors(reference);
    std::printf("# digest explore_supervised frontier=%s dse.solves=%llu "
                "frontier_size=%zu frontier_tput_err=%.17g "
                "frontier_p99_err=%.17g\n",
                hex(io::fnv1a64(reference_json)).c_str(),
                static_cast<unsigned long long>(reference.solves),
                reference.frontier.size(), tput_err, p99_err);

    if (a.trace) {
        MetricSet& m = out.metrics;
        const RequestPool pool = build_requests(a.seed, kRequestProbe);
        measure_requests(pool, check_pool(pool), kProbeSeconds, m);
        const CampaignSeeds seeds =
            screen_campaigns(a.seed, kProbeCandidates, kTrialProbe);
        const bool trials_ok =
            measure_trials(seeds, 1, kTrialProbe, a.workdir, false, m);
        const bool identical =
            measure_explore(spec, a.seed, a.workdir, true, m);
        common_layers(m,
                      pool.generate_failures + seeds.generate_failures);
        out.attempted = reference.requests + des_attempted(reference);
        out.failed = des_failed(reference);
        out.correct = out.failed == 0 && trials_ok && identical;
        return out;
    }

    // Campaign times stay in host time: they are dominated by fsync and by
    // four threads contending, which the reference unit does not model
    // (scaling them widened the run-to-run spread from ~6% to ~16%).
    OpTimes campaigns;
    std::uint64_t configs = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t checkpoints = 0;
    const auto t0 = Clock::now();
    do {
        const fs::path dir = a.workdir
            / ("explore-" + std::to_string(campaigns.host.us.size()));
        const auto sup = fresh_checkpoint(dir);
        const auto c0 = Clock::now();
        try {
            const auto result = dse::supervise_exploration(
                spec.space, spec.objectives, spec.constraints, spec.options,
                sup);
            campaigns.add(c0);
            configs += result.report.requests;
            checkpoints = result.checkpoints;
            out.attempted += result.report.requests
                + des_attempted(result.report);
            out.failed += des_failed(result.report);
            if (frontier_json(result.report) != reference_json) {
                ++mismatched;
                out.failed += result.report.requests;
            }
        } catch (const std::exception& e) {
            campaigns.add(c0);
            std::printf("# run campaign threw: %s\n", e.what());
            out.attempted += spec.space.combinations();
            out.failed += spec.space.combinations();
        }
        fs::remove_all(dir);
    } while (seconds_since(t0) < a.seconds);
    campaigns.ref = campaigns.host;
    std::printf("# digest explore_supervised ckpt.publications=%llu\n",
                static_cast<unsigned long long>(checkpoints));
    std::printf("# run explore_supervised campaigns=%zu seconds=%.3f "
                "frontier_mismatches=%llu\n",
                campaigns.host.us.size(), campaigns.host.total_seconds(),
                static_cast<unsigned long long>(mismatched));
    out.correct = out.failed == 0;
    set_end_to_end(out.metrics, setup_s, static_cast<double>(configs),
                   campaigns.host.total_seconds(),
                   campaigns.ref.total_seconds(), campaigns.host,
                   campaigns.ref);
    return out;
}

Outcome
run_check(const Args& a)
{
    Outcome out;
    double setup_s = 0.0;
    const CampaignSeeds seeds = repeated_setup(
        [&] {
            return screen_campaigns(a.seed, kCampaignCandidates,
                                    kTrialsPerCampaign);
        },
        setup_s);
    std::printf("# inputs check_trials size=%llu roots=%zu "
                "generator_seeds_skipped=%llu off_size_skipped=%llu "
                "ckpt_fs=%s\n",
                static_cast<unsigned long long>(kTrialsPerCampaign),
                seeds.roots.size(),
                static_cast<unsigned long long>(seeds.generate_failures),
                static_cast<unsigned long long>(seeds.off_size),
                filesystem_name(a.workdir.string()).c_str());

    if (a.trace) {
        MetricSet& m = out.metrics;
        const RequestPool pool = build_requests(a.seed, kRequestProbe);
        measure_requests(pool, check_pool(pool), kProbeSeconds, m);
        const bool trials_ok =
            measure_trials(seeds, kTracedCampaigns, kTrialsPerCampaign,
                           a.workdir, true, m);
        // This workload's generator calls are set-up's screening.
        m.set("check.generate_us", seeds.generate_us.median(), "us");
        m.set("check.generate_p99_us", seeds.generate_us.p99(), "us");
        const bool identical = measure_explore(
            build_explore(explore_document(a.seed, 2, 4)), a.seed, a.workdir,
            false, m);
        common_layers(m, seeds.generate_failures);
        out.attempted = kTracedCampaigns * kTrialsPerCampaign;
        out.correct = trials_ok && identical;
        return out;
    }

    OpTimes campaigns;
    std::vector<double> boundary_us{reference_median_us()};
    std::uint64_t trials = 0;
    std::uint64_t first_report = 0;
    std::uint64_t violations = 0;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; seconds_since(t0) < a.seconds; ++c) {
        const fs::path dir = a.workdir / ("check-" + std::to_string(c));
        const auto sup = fresh_checkpoint(dir);
        const auto copts = campaign_options(
            seeds.roots[c % seeds.roots.size()], kTrialsPerCampaign);
        const auto c0 = Clock::now();
        out.attempted += kTrialsPerCampaign;
        try {
            const auto result = ckpt::supervise_check(copts, {}, sup);
            campaigns.add(c0);
            trials += result.report.trials;
            if (!campaign_ok(result.report, kTrialsPerCampaign))
                out.failed += kTrialsPerCampaign;
            violations += result.report.violations;
            for (const auto& f : result.report.failures)
                for (const auto& v : f.violations)
                    std::printf("# run violation root=%s %s: %s %s\n",
                                hex(copts.seed).c_str(), f.name.c_str(),
                                v.oracle.c_str(), v.message.c_str());
            if (c == 0)
                first_report = io::fnv1a64(
                    hex(copts.seed) + check::to_json(result.report).dump(2));
        } catch (const std::exception& e) {
            campaigns.add(c0);
            std::printf("# run campaign threw: %s\n", e.what());
            out.failed += kTrialsPerCampaign;
        }
        fs::remove_all(dir);
        boundary_us.push_back(reference_median_us());
    }
    campaigns.normalize(boundary_us);
    std::printf("# digest check_trials first_campaign=%s\n",
                hex(first_report).c_str());
    std::printf("# run check_trials campaigns=%zu trials=%llu seconds=%.3f "
                "violations=%llu\n",
                campaigns.host.us.size(), static_cast<unsigned long long>(trials),
                campaigns.host.total_seconds(),
                static_cast<unsigned long long>(violations));
    out.correct = out.failed == 0;
    set_end_to_end(out.metrics, setup_s, static_cast<double>(trials),
                   campaigns.host.total_seconds(),
                   campaigns.ref.total_seconds(), campaigns.host,
                   campaigns.ref);
    return out;
}

void
print_result(const Outcome& o)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    bool first = true;
    for (const auto& [name, value] : o.metrics.values) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value.first,
                    value.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: lognic_perf --workload "
                 "<estimate_mix|explore_supervised|check_trials> --seed N "
                 "--seconds S --trace <0|1> --workdir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::atof(value.c_str());
        else if (key == "--trace")
            a.trace = value == "1";
        else if (key == "--workdir")
            a.workdir = value;
        else
            return usage();
    }
    if (a.workdir.empty() || !(a.seconds > 0.0) || argc % 2 == 0)
        return usage();
    const std::map<std::string, std::function<Outcome(const Args&)>> workloads{
        {"estimate_mix", run_estimate},
        {"explore_supervised", run_explore},
        {"check_trials", run_check}};
    const auto it = workloads.find(a.workload);
    if (it == workloads.end())
        return usage();

    fs::create_directories(a.workdir);
    const double host_before_us = a.trace ? reference_median_us() : 0.0;
    Outcome o;
    try {
        o = it->second(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lognic_perf: %s\n", e.what());
        fs::remove_all(a.workdir);
        return 1;
    }
    fs::remove_all(a.workdir);
    if (a.trace)
        o.metrics.set("obs.host_factor",
                      2.0 * kReferenceUnitUs
                          / (host_before_us + reference_median_us()),
                      "ratio");
    else
        o.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    for (const auto& [name, value] : o.metrics.values)
        if (!std::isfinite(value.first)) {
            std::fprintf(stderr, "lognic_perf: %s is not finite\n",
                         name.c_str());
            return 1;
        }
    std::fflush(stdout);
    print_result(o);
    return 0;
}
