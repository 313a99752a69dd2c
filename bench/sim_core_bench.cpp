/**
 * @file
 * Microbenchmark of the DES hot path, the regression gate for simulator
 * performance work. Three workloads exercise the three layers the
 * zero-allocation refactor touches:
 *
 *  - `event_churn`: raw EventQueue schedule/dispatch throughput — 64
 *    self-rescheduling timers keep a live heap while every dispatched
 *    event schedules its successor (the pure kernel cost, no packets);
 *  - `fig10_pktsweep`: the Figure-10 inline-accelerator scenario across
 *    packet sizes — NicSimulator's slab/queue/link path under line rate;
 *  - `panic_chain`: the Figure-15 PANIC pipelined chain at 8 credits —
 *    NicSimulator's credit-window and dedicated-link path.
 *
 * Each workload runs `--repeat` times (default 3) and reports the best
 * (max events/sec) pass, so a background hiccup cannot fail a regression
 * gate. Results land in `BENCH_sim.json` (override with `--out PATH`):
 *
 *     {"schema": "lognic-bench-sim/1", "benchmarks": [
 *        {"name": ..., "events": ..., "wall_seconds": ...,
 *         "events_per_sec": ...}, ...]}
 *
 * CI uploads the file as an artifact and applies a coarse absolute floor
 * (see .github/workflows/ci.yml); PR-to-PR comparisons are done on the
 * archived artifacts. The simulated workloads are seed-deterministic, so
 * event counts are identical across runs and machines — only the wall
 * clock varies.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/sim/event_queue.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/traffic/profiles.hpp"

using namespace lognic;

namespace {

struct BenchResult {
    std::string name;
    std::uint64_t events{0};
    double wall_seconds{0.0};

    double events_per_sec() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(events) / wall_seconds
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

/**
 * Self-rescheduling timer: every invocation schedules a copy of itself a
 * pseudo-random (xorshift, no lognic RNG) gap ahead, so the heap stays at
 * a constant population while every dispatch costs one schedule_in. This
 * is deliberately a trivially-copyable functor, the shape the typed event
 * queue stores inline.
 */
struct ChurnTimer {
    sim::EventQueue* q;
    std::uint64_t* remaining;
    std::uint64_t state;

    void operator()()
    {
        if (*remaining == 0)
            return;
        --*remaining;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const double gap =
            1e-6 * (1.0 + static_cast<double>(state % 1024) / 1024.0);
        q->schedule_in(gap, *this);
    }
};

BenchResult
run_event_churn(std::uint64_t total_events)
{
    sim::EventQueue q;
    std::uint64_t remaining = total_events;
    for (std::uint64_t i = 0; i < 64; ++i)
        q.schedule_at(static_cast<double>(i) * 1e-7,
                      ChurnTimer{&q, &remaining, i * 2654435761u + 1});
    const double start = now_seconds();
    q.run_until(1e18);
    const double wall = now_seconds() - start;
    return BenchResult{"event_churn", q.executed(), wall};
}

BenchResult
run_fig10_sweep()
{
    const auto sc = apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 16);
    std::uint64_t events = 0;
    double wall = 0.0;
    for (const double size : {64.0, 256.0, 1024.0, 1500.0}) {
        const auto tp = core::TrafficProfile::fixed(
            Bytes{size}, Bandwidth::from_gbps(25.0));
        sim::SimOptions opts;
        opts.duration = 0.004;
        opts.seed = 42;
        const double start = now_seconds();
        const auto res = sim::simulate(sc.hw, sc.graph, tp, opts);
        wall += now_seconds() - start;
        events += res.events_executed;
    }
    return BenchResult{"fig10_pktsweep", events, wall};
}

BenchResult
run_panic_chain()
{
    const auto sc = apps::make_panic_pipelined_chain(8);
    const auto tp =
        traffic::panic_profile(1, Bandwidth::from_gbps(90.0));
    sim::SimOptions opts;
    opts.duration = 0.02;
    opts.seed = 17;
    opts.exponential_service = false;
    const double start = now_seconds();
    const auto res = sim::simulate(sc.hw, sc.graph, tp, opts);
    const double wall = now_seconds() - start;
    return BenchResult{"panic_chain", res.events_executed, wall};
}

/// Best-of-N: keep the pass with the highest events/sec.
template <typename F>
BenchResult
best_of(int repeats, F&& run)
{
    BenchResult best = run();
    for (int i = 1; i < repeats; ++i) {
        BenchResult r = run();
        if (r.events_per_sec() > best.events_per_sec())
            best = r;
    }
    return best;
}

void
write_json(const std::string& path, const std::vector<BenchResult>& results)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "sim_core_bench: cannot open '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"schema\": \"lognic-bench-sim/1\",\n"
                    "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult& r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"events\": %llu, "
                     "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.events),
                     r.wall_seconds, r.events_per_sec(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_sim.json";
    std::uint64_t churn_events = 2'000'000;
    int repeats = 3;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--out") == 0) {
            out = argv[i + 1];
        } else if (std::strcmp(argv[i], "--churn-events") == 0) {
            churn_events = std::strtoull(argv[i + 1], nullptr, 10);
        } else if (std::strcmp(argv[i], "--repeat") == 0) {
            repeats = std::max(1, std::atoi(argv[i + 1]));
        } else {
            std::fprintf(stderr,
                         "usage: sim_core_bench [--out PATH] "
                         "[--churn-events N] [--repeat N]\n");
            return 2;
        }
    }

    // Warmup pass (untimed) so page faults and lazy init are off the clock.
    (void)run_event_churn(churn_events / 20 + 1);

    std::vector<BenchResult> results;
    results.push_back(
        best_of(repeats, [&] { return run_event_churn(churn_events); }));
    results.push_back(best_of(repeats, run_fig10_sweep));
    results.push_back(best_of(repeats, run_panic_chain));

    std::printf("%-16s %12s %10s %14s\n", "benchmark", "events", "wall_s",
                "events/sec");
    for (const BenchResult& r : results)
        std::printf("%-16s %12llu %10.4f %14.0f\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.wall_seconds, r.events_per_sec());

    write_json(out, results);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
