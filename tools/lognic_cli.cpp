/**
 * @file
 * lognic — command-line front end for the model (Figure 4a's workflow as
 * a tool). Scenarios (hardware + execution graph + traffic) travel as
 * JSON documents; see `lognic example` for a starting point.
 *
 *   lognic example                      print a sample scenario JSON
 *   lognic example sweep                print a sample sweep-spec JSON
 *   lognic example faults               print a sample fault-plan JSON
 *   lognic example calib                print a sample calibration-spec JSON
 *   lognic example explore              print a sample exploration-spec JSON
 *                                       (the fig13/14 placement study)
 *   lognic example placement            print the fig13/14 NF-placement
 *                                       scenario (LogNIC-opt at MTU)
 *   lognic estimate <scenario.json>     model throughput/latency report
 *   lognic simulate <scenario.json> [seconds] [seed]
 *                                       packet-level simulation
 *   lognic sweep <spec.json>            parallel replicated sweep (the
 *                                       document carries a "sweep" object;
 *                                       emits per-point JSON results)
 *   lognic sweep <scenario.json> <gbps> [gbps...]
 *                                       analytic rate sweep
 *   lognic trace <scenario.json> [--out trace.json] [--seconds s]
 *                [--seed n] [--sample n]
 *                                       traced simulation: Chrome
 *                                       trace-event JSON (open in
 *                                       ui.perfetto.dev) + bottleneck
 *                                       attribution report
 *   lognic faults <scenario.json> <plan.json> [--seconds s] [--seed n]
 *                 [--curve vertex]
 *                                       fault-injected simulation: replay a
 *                                       fault plan mid-run, report delivery
 *                                       and cause-labeled drops; --curve
 *                                       prints the analytical graceful-
 *                                       degradation curve for a vertex
 *   lognic calibrate <spec.json> [--out report.json] [--threads n]
 *                                       fit catalog parameters to a
 *                                       measured or DES-generated dataset;
 *                                       emits a CalibrationReport JSON
 *   lognic check [--trials n] [--seed n] [--duration s]
 *                [--corpus dir] [--out report.json]
 *                [--no-monotonicity] [--no-minimize]
 *                                       differential conformance harness:
 *                                       randomized model/DES/closed-form
 *                                       cross-validation plus golden-
 *                                       corpus replay; emits a JSON
 *                                       violation report, exit 1 on any
 *                                       violation
 *   lognic explore <spec.json> [--out report.json] [--threads n]
 *                  [--prune=on|off|explain]
 *                                       design-space exploration: Pareto
 *                                       search over placements/provisioning
 *                                       knobs with DES validation of the
 *                                       frontier; emits a FrontierReport
 *                                       JSON, byte-identical at any
 *                                       --threads value and any --prune
 *                                       mode (pruning only skips solves)
 *   lognic run <scenario.json> --checkpoint <dir> [--seconds s] [--seed n]
 *              [--segment-events n] [--every n] [--no-resume]
 *              [--retention n]
 *                                       kill-tolerant simulation: run the
 *                                       DES in event-budget segments with
 *                                       crash-safe state snapshots; an
 *                                       interrupted run resumes from the
 *                                       newest valid snapshot and produces
 *                                       bit-identical results
 *   lognic dot <scenario.json>          Graphviz export of the graph
 *
 * `sweep` (spec form), `check`, `calibrate`, and `explore` accept the same
 * checkpoint flags: --checkpoint <dir> enables supervision, --no-resume
 * starts fresh, --every n sets the completions-per-checkpoint cadence,
 * --retention n the generations kept; `sweep` adds --retries n for
 * failed-point retry rounds with exponential backoff.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/core/model.hpp"
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

int
usage()
{
    std::fprintf(stderr,
                 "usage: lognic <command> [args]\n"
                 "  example [sweep|placement]     print a sample scenario "
                 "(or sweep spec, or the\n"
                 "                                fig13/14 NF-placement "
                 "scenario)\n"
                 "  estimate <scenario.json>      analytical report\n"
                 "  simulate <scenario.json> [seconds] [seed]\n"
                 "  sweep    <spec.json>          replicated parallel sweep "
                 "(JSON out)\n"
                 "  sweep    <scenario.json> <gbps> [gbps...]\n"
                 "  trace    <scenario.json> [--out trace.json] "
                 "[--seconds s] [--seed n] [--sample n]\n"
                 "                                traced simulation "
                 "(Chrome trace-event JSON)\n"
                 "  faults   <scenario.json> <plan.json> [--seconds s] "
                 "[--seed n] [--curve vertex]\n"
                 "                                fault-injected simulation "
                 "(cause-labeled drops)\n"
                 "  sensitivity <scenario.json>   parameter elasticities\n"
                 "  check    [--trials n] [--seed n] [--duration s] "
                 "[--corpus dir]\n"
                 "           [--out report.json] [--no-monotonicity] "
                 "[--no-minimize]\n"
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
                 "  run      <scenario.json> --checkpoint <dir> "
                 "[--seconds s] [--seed n]\n"
                 "           [--segment-events n] [--every n] [--no-resume] "
                 "[--retention n]\n"
                 "                                kill-tolerant simulation "
                 "with crash-safe\n"
                 "                                snapshots; resumes from "
                 "the newest valid one\n"
                 "  dot      <scenario.json>      Graphviz export\n"
                 "\n"
                 "sweep (spec form), check, and calibrate also accept\n"
                 "  --checkpoint <dir> [--no-resume] [--every n] "
                 "[--retention n]\n"
                 "(and sweep: --retries n) for kill-tolerant supervised "
                 "runs; explore too\n");
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

/// Shared checkpoint-flag state for sweep/check/calibrate/run.
struct CkptArgs {
    bool enabled{false};
    ckpt::SupervisorOptions sup;
};

/**
 * Try to consume one checkpoint flag at argv[i] (advancing i over its
 * value). Returns true when consumed. @p allow_retries gates the
 * sweep-only --retries flag. @throws UsageError on a malformed count.
 */
bool
parse_ckpt_arg(CkptArgs& ck, int argc, char** argv, int& i,
               bool allow_retries)
{
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--checkpoint" && has_value) {
        ck.enabled = true;
        ck.sup.dir = argv[++i];
        return true;
    }
    if (arg == "--resume") {
        ck.sup.resume = true; // the default; accepted for explicitness
        return true;
    }
    if (arg == "--no-resume") {
        ck.sup.resume = false;
        return true;
    }
    if (arg == "--every" && has_value) {
        ck.sup.checkpoint_every = count_arg(arg, argv[++i], 1);
        return true;
    }
    if (arg == "--retention" && has_value) {
        ck.sup.retention = count_arg(arg, argv[++i], 1);
        return true;
    }
    if (allow_retries && arg == "--retries" && has_value) {
        ck.sup.retry_rounds = count_arg(arg, argv[++i], 0);
        return true;
    }
    return false;
}

/// Stderr diagnostics sink for supervised runs.
void
attach_logger(ckpt::SupervisorOptions& sup)
{
    sup.log = [](const std::string& m) {
        std::fprintf(stderr, "lognic: %s\n", m.c_str());
    };
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
    const auto placement = apps::lognic_opt_placement(probe);
    auto sc = apps::make_nf_chain(placement);
    const core::Model model(sc.hw);
    const auto capacity = model.throughput(sc.graph, probe).capacity;
    return io::Scenario{
        std::move(sc.hw), std::move(sc.graph),
        core::TrafficProfile::fixed(
            mtu, Bandwidth::from_gbps(0.8 * capacity.gbps()))};
}

int
cmd_estimate(const io::Scenario& sc)
{
    const core::Model model(sc.hw);
    const core::Report rep = model.estimate(sc.graph, sc.traffic);
    std::fputs(core::render_report(rep, sc.traffic).c_str(), stdout);
    std::printf("p99 (approx): %.3f us\n",
                rep.latency.per_class[0].p99.micros());
    return 0;
}

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
    for (const auto& vs : res.vertex_stats) {
        std::printf("  %-12s util %.3f, occupancy %.2f, served %llu, "
                    "dropped %llu\n",
                    vs.name.c_str(), vs.utilization, vs.mean_occupancy,
                    static_cast<unsigned long long>(vs.served),
                    static_cast<unsigned long long>(vs.dropped));
    }
}

int
cmd_simulate(const io::Scenario& sc, double seconds, std::uint64_t seed)
{
    sim::SimOptions opts;
    opts.duration = seconds;
    opts.seed = seed;
    const auto res = sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
    std::printf("simulated %.3fs (seed %llu)\n", seconds,
                static_cast<unsigned long long>(seed));
    print_sim_result(res);
    return 0;
}

/**
 * Kill-tolerant simulation: the same run `simulate` does, cut into
 * event-budget segments with a crash-safe snapshot published every
 * --every segments. Killing the process at any point loses at most one
 * checkpoint interval; rerunning the identical command resumes from the
 * newest valid snapshot and finishes with results bit-identical to an
 * uninterrupted run.
 */
int
cmd_run(const io::Scenario& sc, int argc, char** argv)
{
    sim::SimOptions opts;
    std::uint64_t segment_events = 100000;
    CkptArgs ck;
    ck.sup.checkpoint_every = 1; // snapshots are cheap at this granularity
    for (int i = 0; i < argc; ++i) {
        if (parse_ckpt_arg(ck, argc, argv, i, /*allow_retries=*/false))
            continue;
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--seconds" && has_value) {
            opts.duration = std::atof(argv[++i]);
        } else if (arg == "--seed" && has_value) {
            opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--segment-events" && has_value) {
            segment_events = count_arg(arg, argv[++i], 1);
        } else {
            std::fprintf(stderr, "run: bad argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (!ck.enabled) {
        std::fprintf(stderr, "run: --checkpoint <dir> is required\n");
        return 2;
    }
    if (opts.duration <= 0.0) {
        std::fprintf(stderr, "bad duration\n");
        return 2;
    }

    attach_logger(ck.sup);
    sim::NicSimulator simulator(sc.hw, sc.graph, sc.traffic, opts);
    const auto supervised =
        ckpt::supervise_simulation(simulator, segment_events, ck.sup);
    std::printf("simulated %.3fs (seed %llu) in %llu segment(s), "
                "%llu checkpoint(s)%s\n",
                opts.duration,
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(supervised.segments),
                static_cast<unsigned long long>(supervised.checkpoints),
                supervised.resume.resumed ? " [resumed]" : "");
    print_sim_result(supervised.result);
    return 0;
}

/**
 * Traced simulation: run the scenario with a ChromeTraceWriter attached,
 * write the trace-event document (ui.perfetto.dev opens it directly), and
 * print the bottleneck-attribution report comparing the measured per-vertex
 * utilizations against the model's ρ.
 */
int
cmd_trace(const io::Scenario& sc, int argc, char** argv)
{
    std::string out_path;
    sim::SimOptions opts;
    opts.duration = 0.005; // short horizon: traces grow with event count
    std::uint64_t sample_every = 1;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--seconds" && has_value) {
            opts.duration = std::atof(argv[++i]);
        } else if (arg == "--seed" && has_value) {
            opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--sample" && has_value) {
            sample_every =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else {
            std::fprintf(stderr, "trace: bad argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (opts.duration <= 0.0) {
        std::fprintf(stderr, "bad duration\n");
        return 2;
    }

    obs::ChromeTraceWriter writer;
    opts.trace.sink = &writer;
    opts.trace.sample_every = sample_every;
    const auto res = sim::simulate(sc.hw, sc.graph, sc.traffic, opts);

    if (out_path.empty()) {
        std::fputs(writer.dump().c_str(), stdout);
        std::printf("\n");
    } else {
        std::ofstream out(out_path);
        if (out) {
            writer.write(out);
            out.flush();
        }
        if (!out) {
            std::fprintf(stderr, "lognic: cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "wrote %zu trace events on %zu tracks to %s "
                     "(open in https://ui.perfetto.dev)\n",
                     writer.event_count(), writer.track_count(),
                     out_path.c_str());
    }

    const auto model =
        obs::model_vertex_utilization(sc.graph, sc.hw, sc.traffic);
    const auto report = obs::attribute(sim::observations(res), model);
    std::fputs(obs::render(report).c_str(), stderr);
    return 0;
}

/**
 * The conformance harness: N randomized differential trials (optionally
 * plus a golden-corpus replay), a JSON violation report on stdout or
 * --out, exit 1 when any oracle fired. `--trials 0 --corpus dir` replays
 * the corpus alone.
 */
int
cmd_check(int argc, char** argv)
{
    check::CheckOptions copts;
    CkptArgs ck;
    std::string corpus_dir;
    std::string out_path;
    for (int i = 0; i < argc; ++i) {
        if (parse_ckpt_arg(ck, argc, argv, i, /*allow_retries=*/false))
            continue;
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--trials" && has_value) {
            copts.trials =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--seed" && has_value) {
            copts.seed =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--duration" && has_value) {
            copts.duration = std::atof(argv[++i]);
        } else if (arg == "--corpus" && has_value) {
            corpus_dir = argv[++i];
        } else if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--no-monotonicity") {
            copts.monotonicity = false;
        } else if (arg == "--no-minimize") {
            copts.minimize = false;
        } else {
            std::fprintf(stderr, "check: bad argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (copts.duration <= 0.0) {
        std::fprintf(stderr, "bad duration\n");
        return 2;
    }

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

    check::CheckReport report;
    if (ck.enabled) {
        attach_logger(ck.sup);
        auto supervised =
            ckpt::supervise_check(copts, entries, ck.sup);
        report = std::move(supervised.report);
    } else {
        if (!entries.empty())
            report = check::replay_corpus(entries, copts);
        if (copts.trials > 0)
            report = check::merge(std::move(report),
                                  check::run_trials(copts));
    }

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
    for (int i = 0; i < argc; ++i) {
        if (parse_ckpt_arg(ck, argc, argv, i, /*allow_retries=*/true))
            continue;
        std::fprintf(stderr, "sweep: bad argument '%s'\n", argv[i]);
        return 2;
    }

    const auto spec = runner::sweep_spec_from_json(doc);
    const auto sweep = runner::build_sweep(spec);
    runner::SweepReport report;
    if (ck.enabled) {
        attach_logger(ck.sup);
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
 * Fault-injected simulation: replay a fault plan against a scenario and
 * report delivery plus cause-labeled drop accounting; with --curve, also
 * print the analytical graceful-degradation curve for one vertex
 * (model-side counterpart of killing engines mid-run).
 */
int
cmd_faults(const io::Scenario& sc, const std::string& plan_path, int argc,
           char** argv)
{
    sim::SimOptions opts;
    opts.duration = 0.02;
    std::string curve_vertex;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--seconds" && has_value) {
            opts.duration = std::atof(argv[++i]);
        } else if (arg == "--seed" && has_value) {
            opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--curve" && has_value) {
            curve_vertex = argv[++i];
        } else {
            std::fprintf(stderr, "faults: bad argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (opts.duration <= 0.0) {
        std::fprintf(stderr, "bad duration\n");
        return 2;
    }
    opts.faults =
        fault::fault_plan_from_json(io::Json::parse(read_file(plan_path)));

    const auto res = sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
    std::printf("faulted simulation: %.3fs, %zu fault event(s)\n",
                opts.duration, opts.faults.events.size());
    std::printf("  delivered    : %.3f Gbps (%.3f Mops)\n",
                res.delivered.gbps(), res.delivered_ops.mops());
    std::printf("  latency      : mean %.3f us, p50 %.3f, p99 %.3f\n",
                res.mean_latency.micros(), res.p50_latency.micros(),
                res.p99_latency.micros());
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
    return 0;
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
cmd_calibrate(const io::Json& doc, int argc, char** argv)
{
    std::string out_path;
    std::size_t threads_override = 0;
    CkptArgs ck;
    for (int i = 0; i < argc; ++i) {
        if (parse_ckpt_arg(ck, argc, argv, i, /*allow_retries=*/false))
            continue;
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--threads" && has_value) {
            threads_override =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else {
            std::fprintf(stderr, "calibrate: bad argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    calib::CalibSpec spec = calib::calib_spec_from_json(doc);
    if (threads_override > 0)
        spec.options.fit.threads = threads_override;

    calib::CalibrationReport report;
    if (ck.enabled) {
        attach_logger(ck.sup);
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
cmd_explore(const io::Json& doc, int argc, char** argv)
{
    std::string out_path;
    std::size_t threads_override = 0;
    std::string prune_override;
    CkptArgs ck;
    for (int i = 0; i < argc; ++i) {
        if (parse_ckpt_arg(ck, argc, argv, i, /*allow_retries=*/false))
            continue;
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--threads" && has_value) {
            threads_override =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg.rfind("--prune=", 0) == 0) {
            prune_override = arg.substr(8);
        } else if (arg == "--prune" && has_value) {
            prune_override = argv[++i];
        } else {
            std::fprintf(stderr, "explore: bad argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    dse::ExploreSpec spec = dse::explore_spec_from_json(doc);
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
        attach_logger(ck.sup);
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

int
cmd_sweep(const io::Scenario& sc, int argc, char** argv)
{
    const core::Model model(sc.hw);
    std::printf("%10s %12s %12s %12s %12s\n", "offered", "capacity",
                "goodput", "mean(us)", "p99(us)");
    for (int i = 0; i < argc; ++i) {
        const double gbps = std::atof(argv[i]);
        if (gbps <= 0.0) {
            std::fprintf(stderr, "bad rate '%s'\n", argv[i]);
            return 2;
        }
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

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "example") {
            if (argc > 2 && std::string(argv[2]) == "sweep") {
                std::fputs(
                    runner::sample_sweep_spec(sample_scenario()).c_str(),
                    stdout);
            } else if (argc > 2 && std::string(argv[2]) == "faults") {
                std::fputs(fault::sample_fault_plan().c_str(), stdout);
            } else if (argc > 2 && std::string(argv[2]) == "calib") {
                std::fputs(
                    calib::sample_calib_spec(sample_scenario()).c_str(),
                    stdout);
            } else if (argc > 2 && std::string(argv[2]) == "explore") {
                std::fputs(dse::sample_explore_spec().c_str(), stdout);
            } else if (argc > 2 && std::string(argv[2]) == "placement") {
                std::fputs(io::save_scenario(placement_scenario()).c_str(),
                           stdout);
            } else {
                std::fputs(io::save_scenario(sample_scenario()).c_str(),
                           stdout);
            }
            std::printf("\n");
            return 0;
        }
        if (command == "check")
            return cmd_check(argc - 2, argv + 2);
        if (argc < 3)
            return usage();
        if (command == "sweep") {
            // A document carrying a "sweep" object is a spec for the
            // parallel runner; a bare scenario keeps the legacy analytic
            // rate sweep.
            const io::Json doc = io::Json::parse(read_file(argv[2]));
            if (doc.is_object() && doc.contains("sweep"))
                return cmd_sweep_spec(doc, argc - 3, argv + 3);
            if (argc < 4)
                return usage();
            return cmd_sweep(io::scenario_from_json(doc), argc - 3,
                             argv + 3);
        }
        if (command == "faults") {
            if (argc < 4)
                return usage();
            return cmd_faults(load(argv[2]), argv[3], argc - 4, argv + 4);
        }
        if (command == "calibrate") {
            return cmd_calibrate(io::Json::parse(read_file(argv[2])),
                                 argc - 3, argv + 3);
        }
        if (command == "explore") {
            return cmd_explore(io::Json::parse(read_file(argv[2])),
                               argc - 3, argv + 3);
        }
        const io::Scenario sc = load(argv[2]);
        if (command == "estimate")
            return cmd_estimate(sc);
        if (command == "run")
            return cmd_run(sc, argc - 3, argv + 3);
        if (command == "trace")
            return cmd_trace(sc, argc - 3, argv + 3);
        if (command == "simulate") {
            const double seconds = argc > 3 ? std::atof(argv[3]) : 0.05;
            const std::uint64_t seed = argc > 4
                ? static_cast<std::uint64_t>(std::atoll(argv[4]))
                : 42;
            if (seconds <= 0.0) {
                std::fprintf(stderr, "bad duration\n");
                return 2;
            }
            return cmd_simulate(sc, seconds, seed);
        }
        if (command == "sensitivity") {
            const auto results =
                core::analyze_sensitivity(sc.graph, sc.hw, sc.traffic);
            std::printf("%-36s %12s %12s\n", "parameter", "d(cap)",
                        "d(latency)");
            for (const auto& s : results) {
                std::printf("%-36s %12.3f %12.3f\n", s.parameter.c_str(),
                            s.capacity_elasticity, s.latency_elasticity);
            }
            std::printf("\n(log-log elasticities: +1 = output scales "
                        "proportionally with the knob)\n");
            return 0;
        }
        if (command == "dot") {
            std::fputs(core::to_dot(sc.graph, sc.hw).c_str(), stdout);
            return 0;
        }
        return usage();
    } catch (const UsageError& e) {
        std::fprintf(stderr, "lognic: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lognic: %s\n", e.what());
        return 1;
    }
}
