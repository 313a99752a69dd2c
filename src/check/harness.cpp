#include "lognic/check/harness.hpp"

#include <utility>

#include "lognic/runner/thread_pool.hpp"

namespace lognic::check {

namespace {

io::Json
options_to_json(const sim::SimOptions& opts, bool monotonicity)
{
    io::Json j;
    j.set("duration", opts.duration);
    j.set("warmup_fraction", opts.warmup_fraction);
    j.set("seed", io::uint_to_json(opts.seed));
    j.set("exponential_service", opts.exponential_service);
    j.set("poisson_arrivals", opts.poisson_arrivals);
    j.set("monotonicity", monotonicity);
    return j;
}

sim::SimOptions
options_from_json(const io::Json& j)
{
    sim::SimOptions opts;
    opts.duration = j.number_or("duration", opts.duration);
    opts.warmup_fraction =
        j.number_or("warmup_fraction", opts.warmup_fraction);
    opts.seed = io::uint_or<std::uint64_t>(j, "seed", 42);
    if (j.contains("exponential_service"))
        opts.exponential_service = j.at("exponential_service").as_bool();
    if (j.contains("poisson_arrivals"))
        opts.poisson_arrivals = j.at("poisson_arrivals").as_bool();
    return opts;
}

io::Json
spec_json(const std::string& name, const io::Scenario& sc,
          const sim::SimOptions& opts, bool monotonicity)
{
    io::Json j;
    j.set("name", name);
    j.set("options", options_to_json(opts, monotonicity));
    j.set("scenario", io::to_json(sc));
    return j;
}

/**
 * Shrink a failing spec: try cheaper variants in order (shorter horizon
 * twice, then a single-class restriction, then dropping the monotonicity
 * ladder) and keep each reduction that still fails *some* oracle. The
 * result is the smallest variant this greedy pass found — a handful of
 * extra runs, not a full delta-debugging loop, which is the right cost
 * for a default-on feature.
 */
io::Json
minimize_spec(const std::string& name, io::Scenario sc,
              sim::SimOptions opts, bool monotonicity,
              const CheckOptions& copts, std::uint64_t* sims_run)
{
    const auto still_fails = [&](const io::Scenario& s,
                                 const sim::SimOptions& o, bool mono) {
        return !check_scenario(s, o, copts, mono, sims_run).empty();
    };
    for (int halvings = 0; halvings < 2; ++halvings) {
        sim::SimOptions shorter = opts;
        shorter.duration = opts.duration / 2.0;
        if (still_fails(sc, shorter, monotonicity))
            opts = shorter;
        else
            break;
    }
    if (sc.traffic.classes().size() > 1) {
        io::Scenario narrowed = sc;
        narrowed.traffic = sc.traffic.class_profile(0);
        if (still_fails(narrowed, opts, monotonicity))
            sc = std::move(narrowed);
    }
    if (monotonicity && still_fails(sc, opts, false))
        monotonicity = false;
    return spec_json(name, sc, opts, monotonicity);
}

/// Run one trial/corpus unit to a self-contained outcome (the unit of
/// checkpoint journaling).
TrialOutcome
run_one_outcome(const CheckOptions& copts, const std::string& name,
                std::uint64_t generator_seed, bool single_queue,
                const io::Scenario& sc, const sim::SimOptions& opts,
                bool monotonicity)
{
    TrialOutcome out;
    out.single_queue = single_queue;
    std::vector<Violation> violations =
        check_scenario(sc, opts, copts, monotonicity, &out.sims_run);
    if (violations.empty())
        return out;
    out.violations = violations.size();
    out.failed = true;
    out.failure.name = name;
    out.failure.generator_seed = generator_seed;
    out.failure.single_queue = single_queue;
    out.failure.minimal_spec = copts.minimize
        ? minimize_spec(name, sc, opts, monotonicity, copts,
                        &out.sims_run)
        : spec_json(name, sc, opts, monotonicity);
    out.failure.violations = std::move(violations);
    return out;
}

/// Fold a unit's outcome — fresh or replayed — into the report.
void
apply_outcome(CheckReport& report, TrialOutcome&& out)
{
    report.sims_run += out.sims_run;
    report.violations += out.violations;
    if (out.failed)
        report.failures.push_back(std::move(out.failure));
}

/**
 * Run units 0..n-1 on copts.threads workers, each into its own slot: the
 * resume lookup, then @p run (generation, simulation, minimization) and
 * the completion hook. An outcome depends only on its index, so the slots
 * are the same at any thread count. When units throw, parallel_for
 * rethrows the lowest index's error — what a serial run would have thrown.
 */
template <class KeyOf, class Run>
std::vector<TrialOutcome>
run_units(const CheckOptions& copts, std::size_t n, const KeyOf& key_of,
          const Run& run)
{
    std::vector<TrialOutcome> outcomes(n);
    const std::size_t threads = runner::resolve_threads(copts.threads);
    runner::parallel_for(n, threads, [&](std::size_t i) {
        const std::string key = key_of(i);
        TrialOutcome done;
        if (copts.resume_lookup && copts.resume_lookup(key, done)) {
            // Journaled outcome: replay without even regenerating the
            // scenario — the outcome carries everything the report needs.
            outcomes[i] = std::move(done);
            return;
        }
        outcomes[i] = run(i);
        if (copts.on_trial_complete)
            copts.on_trial_complete(key, outcomes[i]);
    });
    return outcomes;
}

} // namespace

io::Json
to_json(const CorpusEntry& entry)
{
    return spec_json(entry.name, entry.scenario, entry.options,
                     entry.monotonicity);
}

CorpusEntry
corpus_entry_from_json(const io::Json& j)
{
    CorpusEntry entry{j.at("name").as_string(),
                      io::scenario_from_json(j.at("scenario"))};
    if (j.contains("options")) {
        entry.options = options_from_json(j.at("options"));
        if (j.at("options").contains("monotonicity"))
            entry.monotonicity =
                j.at("options").at("monotonicity").as_bool();
    }
    return entry;
}

io::Json
to_json(const CheckReport& report)
{
    io::Json j;
    j.set("trials", static_cast<double>(report.trials));
    j.set("corpus_entries", static_cast<double>(report.corpus_entries));
    j.set("single_queue_trials",
          static_cast<double>(report.single_queue_trials));
    j.set("sims_run", static_cast<double>(report.sims_run));
    j.set("violations", static_cast<double>(report.violations));
    io::Json failures;
    for (const auto& f : report.failures) {
        io::Json fj;
        fj.set("name", f.name);
        fj.set("generator_seed", io::uint_to_json(f.generator_seed));
        fj.set("single_queue", f.single_queue);
        io::Json vs;
        for (const auto& v : f.violations)
            vs.push_back(to_json(v));
        fj.set("violations", vs);
        fj.set("minimal_spec", f.minimal_spec);
        failures.push_back(fj);
    }
    if (report.failures.empty())
        failures = io::Json{io::JsonArray{}};
    j.set("failures", failures);
    return j;
}

CheckReport
merge(CheckReport a, const CheckReport& b)
{
    a.trials += b.trials;
    a.corpus_entries += b.corpus_entries;
    a.single_queue_trials += b.single_queue_trials;
    a.sims_run += b.sims_run;
    a.violations += b.violations;
    a.failures.insert(a.failures.end(), b.failures.begin(),
                      b.failures.end());
    return a;
}

std::vector<Violation>
check_scenario(const io::Scenario& sc, const sim::SimOptions& opts,
               const CheckOptions& copts, bool run_monotonicity,
               std::uint64_t* sims_run)
{
    const sim::SimResult res =
        sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
    if (sims_run)
        ++*sims_run;
    std::vector<Violation> out =
        check_invariants(sc, opts, res, copts.invariants);
    for (auto& v : check_model_vs_sim(sc, res, copts.conformance))
        out.push_back(std::move(v));
    for (auto& v :
         check_closed_forms(sc, opts, res, copts.conformance))
        out.push_back(std::move(v));
    if (run_monotonicity && copts.monotonicity)
        for (auto& v : check_latency_monotonicity(
                 sc, opts, copts.conformance, sims_run))
            out.push_back(std::move(v));
    return out;
}

CheckReport
run_trials(const CheckOptions& copts)
{
    std::vector<TrialOutcome> outcomes = run_units(
        copts, copts.trials,
        [](std::size_t i) { return "trial:" + std::to_string(i); },
        [&](std::size_t i) {
            const std::uint64_t trial_seed =
                runner::derive_seed(copts.seed, i);
            const GeneratedScenario gen =
                generate_scenario(trial_seed, copts.generator);
            sim::SimOptions opts;
            opts.duration = copts.duration;
            opts.warmup_fraction = copts.warmup_fraction;
            // The simulation seed derives from the trial seed on a
            // separate index so scenario shape and sample path are
            // independent draws.
            opts.seed = runner::derive_seed(trial_seed, 1);
            return run_one_outcome(copts, "trial-" + std::to_string(i),
                                   trial_seed, gen.single_queue,
                                   gen.scenario, opts, copts.monotonicity);
        });
    CheckReport report;
    for (TrialOutcome& out : outcomes) {
        ++report.trials;
        if (out.single_queue)
            ++report.single_queue_trials;
        apply_outcome(report, std::move(out));
    }
    return report;
}

CheckReport
replay_corpus(const std::vector<CorpusEntry>& entries,
              const CheckOptions& copts)
{
    std::vector<TrialOutcome> outcomes = run_units(
        copts, entries.size(),
        [&](std::size_t i) { return "corpus:" + entries[i].name; },
        [&](std::size_t i) {
            const CorpusEntry& entry = entries[i];
            return run_one_outcome(copts, entry.name, 0, false,
                                   entry.scenario, entry.options,
                                   entry.monotonicity);
        });
    CheckReport report;
    report.corpus_entries = entries.size();
    for (TrialOutcome& out : outcomes)
        apply_outcome(report, std::move(out));
    return report;
}

CheckReport
run_campaign(const CheckOptions& copts,
             const std::vector<CorpusEntry>& corpus)
{
    CheckReport report;
    if (!corpus.empty())
        report = replay_corpus(corpus, copts);
    if (copts.trials > 0)
        report = merge(std::move(report), run_trials(copts));
    return report;
}

} // namespace lognic::check
