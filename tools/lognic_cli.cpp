/**
 * @file
 * lognic — command-line front end for the model (Figure 4a's workflow as
 * a tool). Scenarios (hardware + execution graph + traffic) travel as
 * JSON documents; see `lognic example` for a starting point. `estimate`
 * runs the model on one; `simulate` runs the DES that stands in for the
 * paper's testbeds, optionally fault-injected, traced, or kill-tolerant.
 * Running `lognic` without arguments prints the command summary.
 *
 * Every command's flags go through one table-driven parser
 * (parse_flags()): a command declares its flags and what each sets, and
 * anything outside the table is a usage error (exit status 2).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/case_studies.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/dse/supervise.hpp"
#include "lognic/fault/degradation.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/core/reporting.hpp"
#include "lognic/core/sensitivity.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/obs/attribution.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"

using namespace lognic;

namespace {

io::Scenario sample_scenario();
io::Scenario placement_scenario();

/// The sample documents `lognic example [name]` prints; the first is
/// the default. Drives both the dispatch and the usage line.
struct Example {
    const char* name;
    std::string (*make)();
};

const Example kExamples[] = {
    {"scenario", [] { return io::save_scenario(sample_scenario()); }},
    {"sweep", [] { return runner::sample_sweep_spec(sample_scenario()); }},
    {"faults", fault::sample_fault_plan},
    {"calib", [] { return calib::sample_calib_spec(sample_scenario()); }},
    {"explore", dse::sample_explore_spec},
    {"placement", [] { return io::save_scenario(placement_scenario()); }},
};

int
usage()
{
    std::string names;
    for (const Example& e : kExamples)
        names += (names.empty() ? "" : "|") + std::string(e.name);
    std::fprintf(stderr,
                 "usage: lognic <command> [args]\n"
                 "  example [%s]\n"
                 "                                print a sample document "
                 "(placement: fig13/14)\n"
                 "  estimate <scenario.json>      analytical report\n"
                 "  simulate <scenario.json> [--seconds s] [--seed n] "
                 "[--faults plan.json]\n"
                 "           [--curve vertex] [--trace out.json] "
                 "[--sample n]\n"
                 "           [--checkpoint dir [--segment-events n] "
                 "[--every n] [--retention n]\n"
                 "           [--no-resume]]\n"
                 "                                packet-level simulation: "
                 "fault-injected, traced\n"
                 "                                (Chrome trace-event JSON), "
                 "or kill-tolerant\n"
                 "  sweep    <spec.json>          replicated parallel sweep "
                 "(JSON out)\n"
                 "  sweep    <scenario.json> <gbps> [gbps...]\n"
                 "                                analytic rate sweep\n"
                 "  sensitivity <scenario.json>   parameter elasticities\n"
                 "  check    [--trials n] [--seed n] [--duration s] "
                 "[--corpus dir]\n"
                 "           [--out report.json] [--threads n] "
                 "[--no-monotonicity]\n"
                 "           [--no-minimize]\n"
                 "                                differential conformance "
                 "harness (JSON report;\n"
                 "                                exit 1 on violations)\n"
                 "  calibrate <spec.json> [--out report.json] [--threads n]\n"
                 "                                fit catalog parameters to "
                 "a dataset; emits a\n"
                 "                                CalibrationReport JSON "
                 "(see `lognic example calib`)\n"
                 "  explore  <spec.json> [--out report.json] [--threads n] "
                 "[--prune=on|off|explain]\n"
                 "                                Pareto design-space "
                 "exploration with DES\n"
                 "                                validation of the frontier "
                 "(see `lognic example\n"
                 "                                explore`)\n"
                 "  dot      <scenario.json>      Graphviz export\n"
                 "\n"
                 "sweep (spec form), check, calibrate, and explore also "
                 "accept\n"
                 "  --checkpoint <dir> [--no-resume] [--every n] "
                 "[--retention n]\n"
                 "(and sweep: --retries n) for kill-tolerant supervised "
                 "runs\n",
                 names.c_str());
    return 2;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad() || buf.fail())
        throw std::runtime_error("cannot read '" + path + "'");
    return buf.str();
}

/**
 * Write @p contents (plus a trailing newline) to @p path. Prints the
 * offending path and returns false on any open or write failure — a full
 * disk or revoked permission fails the final flush, not the open, so the
 * stream is checked after flushing.
 */
bool
write_file(const std::string& path, const std::string& contents)
{
    std::ofstream out(path);
    if (out) {
        out << contents << "\n";
        out.flush();
    }
    if (!out) {
        std::fprintf(stderr, "lognic: cannot write '%s'\n", path.c_str());
        return false;
    }
    return true;
}

/// A malformed command-line value: reported, exit status 2.
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * Strict parse of @p flag's count value: a sign, trailing garbage,
 * overflow, or a value below @p min is a usage error naming the flag —
 * never wrapped around (`--every -1` would silently disable periodic
 * checkpoints, `--retries -1` retry forever).
 */
std::uint64_t
count_arg(const std::string& flag, const char* text, std::uint64_t min)
{
    std::uint64_t value = 0;
    try {
        value = io::parse_u64(text, flag);
    } catch (const std::runtime_error& e) {
        throw UsageError(e.what());
    }
    if (value < min)
        throw UsageError(flag + " must be >= " + std::to_string(min));
    return value;
}

/**
 * Strict parse of a positive quantity named @p what (a flag or "rate"):
 * anything but a finite number of @p unit > 0, with nothing after it, is
 * a usage error naming it (`--seconds abc` must not run a zero-length
 * simulation, nor `sweep sc.json 5x` a 5 Gbps point).
 */
double
positive_arg(const std::string& what, const char* text, const char* unit)
{
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0.0)
        throw UsageError(what + " must be a finite number of " + unit
                         + " > 0, got '" + text + "'");
    return value;
}

/**
 * One row of a command's flag table: `--name value` (or `--name=value`)
 * when the flag takes a value, a bare `--name` when it is a switch.
 * @c set receives the value text (nullptr for a switch) and throws
 * UsageError when it is malformed.
 */
struct Flag {
    std::string name;
    bool takes_value;
    std::function<void(const char*)> set;
};

Flag
text_flag(const std::string& name, std::string& out)
{
    return {name, true, [&out](const char* v) { out = v; }};
}

template <class T>
Flag
count_flag(const std::string& name, T& out, std::uint64_t min)
{
    return {name, true, [name, &out, min](const char* v) {
                out = static_cast<T>(count_arg(name, v, min));
            }};
}

Flag
seconds_flag(const std::string& name, double& out)
{
    return {name, true, [name, &out](const char* v) {
                out = positive_arg(name, v, "seconds");
            }};
}

Flag
switch_flag(const std::string& name, bool& out, bool value)
{
    return {name, false, [&out, value](const char*) { out = value; }};
}

/**
 * The one argv walk: apply every word of argv[0, argc) through @p flags.
 * A word outside the table, a switch given a value, or a value flag
 * without one is a usage error naming @p command and the word.
 */
void
parse_flags(const std::string& command, int argc, char** argv,
            const std::vector<Flag>& flags)
{
    for (int i = 0; i < argc; ++i) {
        const std::string word = argv[i];
        const std::size_t eq = word.find('=');
        const bool inline_value = eq != std::string::npos;
        const auto flag = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag& f) { return f.name == word.substr(0, eq); });
        if (flag == flags.end()
            || (flag->takes_value ? !inline_value && i + 1 == argc
                                  : inline_value))
            throw UsageError(command + ": bad argument '" + word + "'");
        if (!flag->takes_value)
            flag->set(nullptr);
        else
            flag->set(inline_value ? argv[i] + eq + 1 : argv[++i]);
    }
}

/// Checkpoint state shared by every supervised command.
struct CkptArgs {
    bool enabled{false};
    ckpt::SupervisorOptions sup;
};

/// @p flags plus the checkpoint flags every supervised command accepts;
/// --checkpoint also routes the supervisor's diagnostics to stderr.
std::vector<Flag>
with_ckpt_flags(CkptArgs& ck, std::vector<Flag> flags)
{
    flags.push_back({"--checkpoint", true, [&ck](const char* dir) {
                         ck.enabled = true;
                         ck.sup.dir = dir;
                         ck.sup.log = [](const std::string& m) {
                             std::fprintf(stderr, "lognic: %s\n", m.c_str());
                         };
                     }});
    flags.push_back(switch_flag("--no-resume", ck.sup.resume, false));
    flags.push_back(count_flag("--every", ck.sup.checkpoint_every, 1));
    flags.push_back(count_flag("--retention", ck.sup.retention, 1));
    return flags;
}

io::Scenario
load(const std::string& path)
{
    return io::load_scenario(read_file(path));
}

io::Scenario
sample_scenario()
{
    core::HardwareModel hw("sample-nic", Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(80.0),
                           Bandwidth::from_gbps(25.0));
    core::IpSpec cores;
    cores.name = "cores";
    cores.kind = core::IpKind::kCpuCores;
    cores.roofline = core::ExtendedRoofline(
        core::ServiceModel{Seconds::from_micros(1.0),
                           Bandwidth::from_gigabytes_per_sec(4.0)},
        {});
    cores.max_engines = 8;
    cores.default_queue_capacity = 64;
    const auto cores_id = hw.add_ip(cores);

    core::IpSpec crypto;
    crypto.name = "crypto";
    crypto.kind = core::IpKind::kAccelerator;
    crypto.roofline = core::ExtendedRoofline(
        core::ServiceModel{Seconds::from_micros(0.4),
                           Bandwidth::from_gbps(400.0)},
        {{"feed", Bandwidth::from_gbps(50.0)}});
    crypto.max_engines = 2;
    crypto.service_scv = 0.1; // hardware pipeline
    const auto crypto_id = hw.add_ip(crypto);

    core::ExecutionGraph g("sample-offload");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto v1 = g.add_ip_vertex("cores", cores_id);
    const auto v2 = g.add_ip_vertex("crypto", crypto_id);
    g.add_edge(in, v1);
    g.add_edge(v1, v2, core::EdgeParams{1.0, 0.0, 1.0, {}});
    g.add_edge(v2, out);

    return io::Scenario{std::move(hw), std::move(g),
                        core::TrafficProfile::fixed(
                            Bytes{1024.0}, Bandwidth::from_gbps(12.0))};
}

// The fig13/14 NF-placement scenario at MTU: the chain under the
// placement LogNIC-opt picks for 1500 B packets, offered 80% of its
// modelled capacity — the operating point bench/fig13_14_placement
// evaluates and the one the EXPERIMENTS.md Perfetto walkthrough opens.
io::Scenario
placement_scenario()
{
    const Bytes mtu{1500.0};
    const auto probe =
        core::TrafficProfile::fixed(mtu, Bandwidth::from_gbps(50.0));
    const auto placement = dse::lognic_opt_placement(probe);
    auto sc = apps::make_nf_chain(placement);
    const core::Model model(sc.hw);
    const auto capacity = model.throughput(sc.graph, probe).capacity;
    return io::Scenario{
        std::move(sc.hw), std::move(sc.graph),
        core::TrafficProfile::fixed(
            mtu, Bandwidth::from_gbps(0.8 * capacity.gbps()))};
}

int
cmd_example(int argc, char** argv)
{
    const std::string name = argc > 0 ? argv[0] : kExamples[0].name;
    const auto example =
        std::find_if(std::begin(kExamples), std::end(kExamples),
                     [&](const Example& e) { return name == e.name; });
    if (argc > 1 || example == std::end(kExamples))
        return usage();
    std::fputs(example->make().c_str(), stdout);
    std::printf("\n");
    return 0;
}

int
cmd_estimate(const std::string& path, int argc, char** argv)
{
    parse_flags("estimate", argc, argv, {});
    const io::Scenario sc = load(path);
    const core::Model model(sc.hw);
    const core::Report rep = model.estimate(sc.graph, sc.traffic);
    std::fputs(core::render_report(rep, sc.traffic).c_str(), stdout);
    std::printf("p99 (approx): %.3f us\n",
                rep.latency.per_class[0].p99.micros());
    return 0;
}

/// Every result line of a simulation, whichever flags ran it.
void
print_sim_result(const sim::SimResult& res)
{
    std::printf("  delivered    : %.3f Gbps (%.3f Mops)\n",
                res.delivered.gbps(), res.delivered_ops.mops());
    std::printf("  latency      : mean %.3f us, p50 %.3f, p99 %.3f\n",
                res.mean_latency.micros(), res.p50_latency.micros(),
                res.p99_latency.micros());
    std::printf("  drops        : %llu of %llu (%.4f)\n",
                static_cast<unsigned long long>(res.dropped),
                static_cast<unsigned long long>(res.generated),
                res.drop_rate);
    std::printf("  conservation : generated %llu = completed %llu + "
                "dropped %llu + in-flight %llu\n",
                static_cast<unsigned long long>(res.generated),
                static_cast<unsigned long long>(res.completed_total),
                static_cast<unsigned long long>(res.dropped_total),
                static_cast<unsigned long long>(res.in_flight));
    const auto& counters = res.metrics.counters;
    for (const char* key : {"sim.dropped_by_cause.overflow",
                            "sim.dropped_by_cause.burst",
                            "sim.dropped_by_cause.engine_fail"}) {
        const auto it = counters.find(key);
        if (it != counters.end())
            std::printf("  %-28s %llu\n", key,
                        static_cast<unsigned long long>(it->second));
    }
    if (res.truncated)
        std::printf("  TRUNCATED (%s) at t=%.6fs\n",
                    res.truncation_reason.c_str(), res.sim_time_reached);
    for (const auto& vs : res.vertex_stats) {
        std::printf("  %-12s util %.3f, occupancy %.2f, served %llu, "
                    "dropped %llu\n",
                    vs.name.c_str(), vs.utilization, vs.mean_occupancy,
                    static_cast<unsigned long long>(vs.served),
                    static_cast<unsigned long long>(vs.dropped));
    }
}

/**
 * The one simulation command. --faults replays a fault plan mid-run;
 * --curve adds the analytical graceful-degradation curve of one vertex
 * (the model-side counterpart of killing engines); --trace attaches a
 * ChromeTraceWriter (ui.perfetto.dev opens the file directly) and prints
 * the bottleneck-attribution report comparing measured utilizations with
 * the model's ρ; --checkpoint cuts the run into event-budget segments
 * with a crash-safe snapshot every --every segments, so killing the
 * process loses at most one interval and rerunning the identical command
 * resumes, finishing bit-identical to an uninterrupted run.
 */
int
cmd_simulate(const std::string& path, int argc, char** argv)
{
    sim::SimOptions opts;
    std::string faults_path;
    std::string curve_vertex;
    std::string trace_path;
    std::uint64_t segment_events = 100000;
    CkptArgs ck;
    ck.sup.checkpoint_every = 1; // snapshots are cheap at this granularity
    parse_flags(
        "simulate", argc, argv,
        with_ckpt_flags(
            ck, {seconds_flag("--seconds", opts.duration),
                 count_flag("--seed", opts.seed, 0),
                 text_flag("--faults", faults_path),
                 text_flag("--curve", curve_vertex),
                 text_flag("--trace", trace_path),
                 count_flag("--sample", opts.trace.sample_every, 0),
                 count_flag("--segment-events", segment_events, 1)}));
    // NicSimulator::check_segmentable: a segmented run cannot trace.
    if (ck.enabled && !trace_path.empty())
        throw UsageError("simulate: --trace cannot be combined with "
                         "--checkpoint");

    const io::Scenario sc = load(path);
    if (!faults_path.empty())
        opts.faults = fault::fault_plan_from_json(
            io::Json::parse(read_file(faults_path)));
    obs::ChromeTraceWriter writer;
    if (!trace_path.empty())
        opts.trace.sink = &writer;

    std::optional<ckpt::SupervisedSimulation> supervised;
    if (ck.enabled) {
        sim::NicSimulator simulator(sc.hw, sc.graph, sc.traffic, opts);
        supervised =
            ckpt::supervise_simulation(simulator, segment_events, ck.sup);
    }
    const sim::SimResult res =
        supervised ? std::move(supervised->result)
                   : sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
    std::printf("simulated %.3fs (seed %llu)", opts.duration,
                static_cast<unsigned long long>(opts.seed));
    if (!faults_path.empty())
        std::printf(", %zu fault event(s)", opts.faults.events.size());
    if (supervised)
        std::printf(" in %llu segment(s), %llu checkpoint(s)%s",
                    static_cast<unsigned long long>(supervised->segments),
                    static_cast<unsigned long long>(supervised->checkpoints),
                    supervised->resume.resumed ? " [resumed]" : "");
    std::printf("\n");
    print_sim_result(res);

    if (!curve_vertex.empty()) {
        const auto curve = fault::degradation_curve(sc.hw, sc.graph,
                                                    sc.traffic,
                                                    curve_vertex);
        std::printf("\ngraceful degradation of '%s' (analytical):\n",
                    curve.vertex.c_str());
        std::printf("%8s %10s %12s %12s %12s\n", "failed", "fraction",
                    "capacity", "achieved", "mean(us)");
        for (const auto& pt : curve.points) {
            std::printf("%8u %9.0f%% %11.2fG %11.2fG %12.3f\n",
                        pt.engines_failed, 100.0 * pt.fraction_failed,
                        pt.capacity.gbps(), pt.achieved.gbps(),
                        pt.mean_latency.micros());
        }
    }

    if (!trace_path.empty()) {
        if (!write_file(trace_path, writer.dump()))
            return 1;
        std::fprintf(stderr,
                     "wrote %zu trace events on %zu tracks to %s "
                     "(open in https://ui.perfetto.dev)\n",
                     writer.event_count(), writer.track_count(),
                     trace_path.c_str());
        const auto model =
            obs::model_vertex_utilization(sc.graph, sc.hw, sc.traffic);
        const auto report = obs::attribute(sim::observations(res), model);
        std::fputs(obs::render(report).c_str(), stderr);
    }
    return 0;
}

/**
 * The conformance harness: N randomized differential trials (optionally
 * plus a golden-corpus replay), a JSON violation report on stdout or
 * --out, exit 1 when any oracle fired. `--trials 0 --corpus dir` replays
 * the corpus alone. --threads (default 0: one per hardware thread) only
 * changes wall-clock, never the report.
 */
int
cmd_check(int argc, char** argv)
{
    check::CheckOptions copts;
    CkptArgs ck;
    std::string corpus_dir;
    std::string out_path;
    parse_flags(
        "check", argc, argv,
        with_ckpt_flags(
            ck, {count_flag("--trials", copts.trials, 0),
                 count_flag("--seed", copts.seed, 0),
                 seconds_flag("--duration", copts.duration),
                 text_flag("--corpus", corpus_dir),
                 text_flag("--out", out_path),
                 count_flag("--threads", copts.threads, 0),
                 switch_flag("--no-monotonicity", copts.monotonicity, false),
                 switch_flag("--no-minimize", copts.minimize, false)}));

    std::vector<check::CorpusEntry> entries;
    if (!corpus_dir.empty()) {
        std::vector<std::filesystem::path> files;
        for (const auto& e :
             std::filesystem::directory_iterator(corpus_dir))
            if (e.path().extension() == ".json")
                files.push_back(e.path());
        // Directory iteration order is unspecified; sort for a
        // deterministic report.
        std::sort(files.begin(), files.end());
        entries.reserve(files.size());
        for (const auto& f : files)
            entries.push_back(check::corpus_entry_from_json(
                io::Json::parse(read_file(f.string()))));
    }

    const check::CheckReport report =
        ck.enabled ? ckpt::supervise_check(copts, entries, ck.sup).report
                   : check::run_campaign(copts, entries);

    const std::string doc = check::to_json(report).dump(2);
    if (out_path.empty()) {
        std::fputs(doc.c_str(), stdout);
        std::printf("\n");
    } else if (!write_file(out_path, doc)) {
        return 1;
    }
    std::fprintf(stderr,
                 "check: %llu trials + %llu corpus entries, %llu sims, "
                 "%llu violations\n",
                 static_cast<unsigned long long>(report.trials),
                 static_cast<unsigned long long>(report.corpus_entries),
                 static_cast<unsigned long long>(report.sims_run),
                 static_cast<unsigned long long>(report.violations));
    return report.violations == 0 ? 0 : 1;
}

/// Spec-driven sweep: grid x replications fanned over a thread pool,
/// per-point aggregates (mean / stddev / 95% CI) emitted as JSON. Runs
/// guarded: a point that throws or trips the watchdog becomes a record in
/// the "failed"/"truncated" arrays instead of killing the campaign (exit
/// status 1 flags an incomplete sweep).
int
cmd_sweep_spec(const io::Json& doc, int argc, char** argv)
{
    CkptArgs ck;
    parse_flags("sweep", argc, argv,
                with_ckpt_flags(ck, {count_flag("--retries",
                                                ck.sup.retry_rounds, 0)}));

    const auto spec = runner::sweep_spec_from_json(doc);
    const auto sweep = runner::build_sweep(spec);
    runner::SweepReport report;
    if (ck.enabled) {
        auto supervised =
            ckpt::supervise_sweep(sweep, spec.options, ck.sup);
        report = std::move(supervised.report);
        if (supervised.retry_rounds_used > 0)
            std::fprintf(stderr, "lognic: %zu retry round(s) used\n",
                         supervised.retry_rounds_used);
    } else {
        report = sweep.run_guarded(spec.options);
    }
    std::fputs(runner::to_json(report).dump().c_str(), stdout);
    std::printf("\n");
    for (const auto& f : report.failed)
        std::fprintf(stderr, "lognic: point %zu (%s) failed after %zu "
                             "attempt(s): %s\n",
                     f.index, f.label.c_str(), f.attempts,
                     f.error.c_str());
    for (const auto& t : report.truncated)
        std::fprintf(stderr, "lognic: point %zu (%s) replication %zu "
                             "truncated (%s) at t=%.6fs\n",
                     t.index, t.label.c_str(), t.replication,
                     t.reason.c_str(), t.sim_time_reached);
    return report.failed.empty() ? 0 : 1;
}

/**
 * Spec-driven calibration: parse the document (running the DES data
 * synthesis when the spec carries "generate"), fit, print the
 * human-readable summary to stderr, and emit the CalibrationReport JSON
 * (the artifact CI schema-checks) to --out or stdout. Exits nonzero only
 * when the calibration fails outright (every start threw, bad spec);
 * a fit that merely stalled short of a tolerance still reports — the
 * report's "converged"/"message" fields carry that verdict.
 */
int
cmd_calibrate(const std::string& path, int argc, char** argv)
{
    std::string out_path;
    std::size_t threads_override = 0;
    CkptArgs ck;
    parse_flags("calibrate", argc, argv,
                with_ckpt_flags(
                    ck, {text_flag("--out", out_path),
                         count_flag("--threads", threads_override, 0)}));

    calib::CalibSpec spec =
        calib::calib_spec_from_json(io::Json::parse(read_file(path)));
    if (threads_override > 0)
        spec.options.fit.threads = threads_override;

    calib::CalibrationReport report;
    if (ck.enabled) {
        auto supervised = ckpt::supervise_calibration(
            std::move(spec.space), std::move(spec.data), spec.options,
            ck.sup);
        report = std::move(supervised.report);
    } else {
        const calib::Calibrator calibrator(std::move(spec.space),
                                           std::move(spec.data),
                                           spec.options);
        report = calibrator.fit();
    }
    std::fputs(calib::render(report).c_str(), stderr);

    const std::string json = calib::to_json(report).dump();
    if (out_path.empty()) {
        std::fputs(json.c_str(), stdout);
        std::printf("\n");
    } else {
        if (!write_file(out_path, json))
            return 1;
        std::fprintf(stderr, "wrote calibration report to %s\n",
                     out_path.c_str());
    }
    return 0;
}

/**
 * Spec-driven design-space exploration: parse the document, search, print
 * the human-readable frontier to stderr, and emit the FrontierReport JSON
 * (the artifact CI schema-checks and byte-compares across --threads) to
 * --out or stdout. --threads only changes wall-clock, never the report.
 */
int
cmd_explore(const std::string& path, int argc, char** argv)
{
    std::string out_path;
    std::size_t threads_override = 0;
    std::string prune_override;
    CkptArgs ck;
    parse_flags("explore", argc, argv,
                with_ckpt_flags(
                    ck, {text_flag("--out", out_path),
                         count_flag("--threads", threads_override, 0),
                         text_flag("--prune", prune_override)}));

    dse::ExploreSpec spec =
        dse::explore_spec_from_json(io::Json::parse(read_file(path)));
    if (threads_override > 0)
        spec.options.threads = threads_override;
    if (!prune_override.empty())
        spec.options.prune = dse::prune_mode_from_name(prune_override);
    // Explain narration goes to stderr: the report JSON on stdout stays
    // byte-identical across prune modes.
    spec.options.prune_log = [](const std::string& message) {
        std::fputs(message.c_str(), stderr);
    };

    dse::FrontierReport report;
    if (ck.enabled) {
        auto supervised = dse::supervise_exploration(
            spec.space, spec.objectives, spec.constraints, spec.options,
            ck.sup);
        report = std::move(supervised.report);
    } else {
        report = dse::explore(spec.space, spec.objectives, spec.constraints,
                              spec.options);
    }
    std::fputs(dse::render(report).c_str(), stderr);

    const std::string json = dse::frontier_report_to_json(report).dump();
    if (out_path.empty()) {
        std::fputs(json.c_str(), stdout);
        std::printf("\n");
    } else {
        if (!write_file(out_path, json))
            return 1;
        std::fprintf(stderr, "wrote frontier report to %s\n",
                     out_path.c_str());
    }
    return 0;
}

/// A document carrying a "sweep" object is a spec for the parallel
/// runner; a bare scenario takes the rates of an analytic sweep.
int
cmd_sweep(const std::string& path, int argc, char** argv)
{
    const io::Json doc = io::Json::parse(read_file(path));
    if (doc.is_object() && doc.contains("sweep"))
        return cmd_sweep_spec(doc, argc, argv);
    if (argc == 0)
        return usage();
    std::vector<double> rates;
    for (int i = 0; i < argc; ++i)
        rates.push_back(positive_arg("rate", argv[i], "Gbps"));

    const io::Scenario sc = io::scenario_from_json(doc);
    const core::Model model(sc.hw);
    std::printf("%10s %12s %12s %12s %12s\n", "offered", "capacity",
                "goodput", "mean(us)", "p99(us)");
    for (const double gbps : rates) {
        auto traffic = sc.traffic;
        traffic.set_ingress_bandwidth(Bandwidth::from_gbps(gbps));
        const auto rep = model.estimate(sc.graph, traffic);
        std::printf("%9.2fG %11.2fG %11.2fG %12.3f %12.3f\n", gbps,
                    rep.throughput.capacity.gbps(),
                    rep.latency.per_class[0].goodput.gbps(),
                    rep.latency.mean.micros(),
                    rep.latency.per_class[0].p99.micros());
    }
    return 0;
}

int
cmd_sensitivity(const std::string& path, int argc, char** argv)
{
    parse_flags("sensitivity", argc, argv, {});
    const io::Scenario sc = load(path);
    const auto results =
        core::analyze_sensitivity(sc.graph, sc.hw, sc.traffic);
    std::printf("%-36s %12s %12s\n", "parameter", "d(cap)", "d(latency)");
    for (const auto& s : results) {
        std::printf("%-36s %12.3f %12.3f\n", s.parameter.c_str(),
                    s.capacity_elasticity, s.latency_elasticity);
    }
    std::printf("\n(log-log elasticities: +1 = output scales "
                "proportionally with the knob)\n");
    return 0;
}

int
cmd_dot(const std::string& path, int argc, char** argv)
{
    parse_flags("dot", argc, argv, {});
    const io::Scenario sc = load(path);
    std::fputs(core::to_dot(sc.graph, sc.hw).c_str(), stdout);
    return 0;
}

/// The commands that take one input document, then flags (or, for the
/// analytic sweep, rates).
const struct {
    const char* name;
    int (*run)(const std::string& path, int argc, char** argv);
} kDocumentCommands[] = {
    {"estimate", cmd_estimate},   {"simulate", cmd_simulate},
    {"sweep", cmd_sweep},         {"sensitivity", cmd_sensitivity},
    {"calibrate", cmd_calibrate}, {"explore", cmd_explore},
    {"dot", cmd_dot},
};

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "example")
            return cmd_example(argc - 2, argv + 2);
        if (command == "check")
            return cmd_check(argc - 2, argv + 2);
        for (const auto& c : kDocumentCommands)
            if (command == c.name)
                return argc < 3 ? usage() : c.run(argv[2], argc - 3, argv + 3);
        return usage();
    } catch (const UsageError& e) {
        std::fprintf(stderr, "lognic: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lognic: %s\n", e.what());
        return 1;
    }
}
