/**
 * @file
 * Exploration-throughput benchmark, the regression gate for the dse
 * search loop and its feasibility-pruning fast path. One workload, run
 * twice over the identical design space:
 *
 *  - `explore_unpruned`: exhaustive search with --prune=off — every
 *    config pays a model solve;
 *  - `explore_pruned`: the same search with --prune=on — configs the
 *    Pruner proves infeasible skip the solve but still flow through the
 *    serial batch coordinator, so both runs produce byte-identical
 *    lognic-dse-frontier/1 reports (asserted here; the binary exits
 *    non-zero on a mismatch).
 *
 * The space is the NF-chain placement study widened to > 10^5
 * combinations (placement x line rate x interface x memory x offered
 * rate) under a binding throughput floor, so most of the grid is
 * provably infeasible without a solve. Each mode runs `--repeat` times
 * (default 3) and reports the best (max configs/sec) pass. Results land
 * in `BENCH_dse.json` (override with `--out PATH`):
 *
 *     {"schema": "lognic-bench-dse/1", "space_combinations": ...,
 *      "frontier_identical": true, "solve_ratio": ..., "speedup": ...,
 *      "benchmarks": [
 *        {"name": ..., "configs": ..., "solves": ..., "frontier_size":
 *         ..., "wall_seconds": ..., "configs_per_sec": ...}, ...]}
 *
 * CI uploads the file as an artifact, checks frontier_identical, gates
 * solve_ratio <= 0.5 and speedup >= 2, and applies a coarse absolute
 * configs/sec floor (see .github/workflows/ci.yml). The search is
 * seed-deterministic, so config/solve counts are identical across runs
 * and machines — only the wall clock varies.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/io/serialize.hpp"

using namespace lognic;

namespace {

struct BenchResult {
    std::string name;
    std::uint64_t configs{0};
    std::uint64_t solves{0};
    std::uint64_t frontier_size{0};
    double wall_seconds{0.0};
    std::string report_json; ///< for the cross-mode identity check

    double configs_per_sec() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(configs) / wall_seconds
            : 0.0;
    }
};

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<double>
levels(double first, double step, std::size_t count)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(first + step * static_cast<double>(i));
    return out;
}

/**
 * The placement study widened to 102,400 combinations: 16 placements x
 * 10 line rates x 8 interface widths x 4 memory widths x 20 offered
 * rates. The knob order fixes the exhaustive odometer (traffic varies
 * fastest) and with it the config stream; keep it so numbers compare
 * across commits.
 */
dse::DesignSpace
make_space()
{
    const auto built = apps::make_nf_chain(apps::arm_only_placement());
    io::Scenario base{built.hw, built.graph,
                      core::TrafficProfile::fixed(
                          Bytes{1500.0}, Bandwidth::from_gbps(50.0))};
    dse::DesignSpace space(std::move(base));
    space.add("placement.nf_chain", {});
    space.add("line_rate_gbps", levels(10.0, 10.0, 10));
    space.add("interface_gbps", levels(25.0, 25.0, 8));
    space.add("memory_gbps", levels(50.0, 50.0, 4));
    space.add("traffic.rate_gbps", levels(5.0, 5.0, 20));
    return space;
}

BenchResult
run_explore(const dse::DesignSpace& space, dse::PruneMode mode)
{
    const std::vector<dse::ObjectiveSpec> objectives{
        dse::objective_from_name("throughput_gbps"),
        dse::objective_from_name("p99_latency_us")};
    // The binding box constraint: a 20 Gb/s throughput floor. The fully
    // ARM-resident chain tops out near 10 Gb/s and full offload near
    // 21.7 Gb/s, so only offload-heavy placements on wide links at high
    // offered rates survive — most of the grid is provably infeasible
    // from the term tables alone.
    dse::Constraint floor;
    floor.metric = "throughput_gbps";
    floor.lower = 20.0;
    const std::vector<dse::Constraint> constraints{floor};

    dse::ExploreOptions opts;
    opts.strategy = dse::Strategy::kExhaustive;
    opts.exhaustive_limit = 1u << 17;
    opts.des.enabled = false;
    opts.prune = mode;

    const double start = now_seconds();
    const dse::FrontierReport report =
        dse::explore(space, objectives, constraints, opts);
    const double wall = now_seconds() - start;

    BenchResult r;
    r.name = mode == dse::PruneMode::kOff ? "explore_unpruned"
                                          : "explore_pruned";
    r.configs = report.requests;
    r.solves = report.solves;
    r.frontier_size = report.frontier.size();
    r.wall_seconds = wall;
    r.report_json = dse::frontier_report_to_json(report).dump(2);
    return r;
}

/// Best-of-N: keep the pass with the highest configs/sec.
template <typename F>
BenchResult
best_of(int repeats, F&& run)
{
    BenchResult best = run();
    for (int i = 1; i < repeats; ++i) {
        BenchResult r = run();
        if (r.configs_per_sec() > best.configs_per_sec())
            best = r;
    }
    return best;
}

void
write_json(const std::string& path, const std::vector<BenchResult>& results,
           std::uint64_t combinations, bool identical, double solve_ratio,
           double speedup)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "dse_explore_bench: cannot open '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"schema\": \"lognic-bench-dse/1\",\n"
                 "  \"space_combinations\": %llu,\n"
                 "  \"frontier_identical\": %s,\n"
                 "  \"solve_ratio\": %.6f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"benchmarks\": [\n",
                 static_cast<unsigned long long>(combinations),
                 identical ? "true" : "false", solve_ratio, speedup);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult& r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"configs\": %llu, "
                     "\"solves\": %llu, \"frontier_size\": %llu, "
                     "\"wall_seconds\": %.6f, "
                     "\"configs_per_sec\": %.1f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.configs),
                     static_cast<unsigned long long>(r.solves),
                     static_cast<unsigned long long>(r.frontier_size),
                     r.wall_seconds, r.configs_per_sec(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_dse.json";
    int repeats = 3;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--out") == 0) {
            out = argv[i + 1];
        } else if (std::strcmp(argv[i], "--repeat") == 0) {
            repeats = std::max(1, std::atoi(argv[i + 1]));
        } else {
            std::fprintf(stderr,
                         "usage: dse_explore_bench [--out PATH] "
                         "[--repeat N]\n");
            return 2;
        }
    }

    const dse::DesignSpace space = make_space();

    // Warmup pass (untimed) so page faults and lazy init are off the
    // clock; the pruned mode is the cheap one.
    (void)run_explore(space, dse::PruneMode::kOn);

    const BenchResult unpruned = best_of(
        repeats, [&] { return run_explore(space, dse::PruneMode::kOff); });
    const BenchResult pruned = best_of(
        repeats, [&] { return run_explore(space, dse::PruneMode::kOn); });

    // The pruning contract: identical report bytes, strictly fewer
    // solves. A violation is a correctness bug, not a slow pass.
    const bool identical = unpruned.report_json == pruned.report_json;
    const double solve_ratio = unpruned.solves > 0
        ? static_cast<double>(pruned.solves)
              / static_cast<double>(unpruned.solves)
        : 1.0;
    const double speedup = unpruned.configs_per_sec() > 0.0
        ? pruned.configs_per_sec() / unpruned.configs_per_sec()
        : 0.0;

    std::printf("%-18s %10s %10s %10s %14s\n", "benchmark", "configs",
                "solves", "wall_s", "configs/sec");
    for (const BenchResult* r : {&unpruned, &pruned})
        std::printf("%-18s %10llu %10llu %10.4f %14.0f\n", r->name.c_str(),
                    static_cast<unsigned long long>(r->configs),
                    static_cast<unsigned long long>(r->solves),
                    r->wall_seconds, r->configs_per_sec());
    std::printf("\nsolve ratio %.4f, speedup %.2fx, frontier %s\n",
                solve_ratio, speedup,
                identical ? "identical" : "MISMATCH");

    write_json(out, {unpruned, pruned}, space.combinations(), identical,
               solve_ratio, speedup);
    std::printf("wrote %s\n", out.c_str());

    if (!identical) {
        std::fprintf(stderr,
                     "dse_explore_bench: pruned and unpruned frontier "
                     "reports differ\n");
        return 1;
    }
    return 0;
}
