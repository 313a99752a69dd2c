#include "lognic/calib/report.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace lognic::calib {

namespace {

std::string
hex_seed(std::uint64_t seed)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

io::Json
vector_to_json(const solver::Vector& v)
{
    io::Json arr{io::JsonArray{}};
    for (double x : v)
        arr.push_back(x);
    return arr;
}

solver::Vector
vector_from_json(const io::Json& j)
{
    solver::Vector v;
    for (const auto& item : j.as_array())
        v.push_back(item.as_number());
    return v;
}

io::Json
to_json(const ResidualRecord& rec)
{
    io::Json j;
    j.set("label", rec.label);
    j.set("holdout", rec.holdout);
    j.set("observed_throughput_gbps", rec.observed_throughput_gbps);
    j.set("predicted_throughput_gbps", rec.predicted_throughput_gbps);
    j.set("throughput_rel_error", rec.throughput_rel_error);
    j.set("observed_latency_us", rec.observed_latency_us);
    j.set("predicted_latency_us", rec.predicted_latency_us);
    j.set("latency_rel_error", rec.latency_rel_error);
    return j;
}

ResidualRecord
residual_record_from_json(const io::Json& j)
{
    ResidualRecord rec;
    rec.label = j.at("label").as_string();
    rec.holdout = j.contains("holdout") && j.at("holdout").as_bool();
    rec.observed_throughput_gbps =
        j.number_or("observed_throughput_gbps", 0.0);
    rec.predicted_throughput_gbps =
        j.number_or("predicted_throughput_gbps", 0.0);
    rec.throughput_rel_error = j.number_or("throughput_rel_error", 0.0);
    rec.observed_latency_us = j.number_or("observed_latency_us", 0.0);
    rec.predicted_latency_us = j.number_or("predicted_latency_us", 0.0);
    rec.latency_rel_error = j.number_or("latency_rel_error", 0.0);
    return rec;
}

io::Json
to_json(const IdentifiabilityWarning& w)
{
    io::Json j;
    j.set("parameter", w.parameter);
    j.set("kind", w.kind);
    j.set("detail", w.detail);
    j.set("metric", w.metric);
    return j;
}

IdentifiabilityWarning
warning_from_json(const io::Json& j)
{
    IdentifiabilityWarning w;
    w.parameter = j.at("parameter").as_string();
    w.kind = j.at("kind").as_string();
    if (j.contains("detail"))
        w.detail = j.at("detail").as_string();
    w.metric = j.number_or("metric", 0.0);
    return w;
}

io::Json
to_json(const StartOutcome& s)
{
    io::Json j;
    j.set("index", static_cast<double>(s.index));
    j.set("seed", hex_seed(s.seed));
    j.set("initial_loss", s.initial_loss);
    j.set("final_loss", s.final_loss);
    j.set("converged", s.converged);
    j.set("failed", s.failed);
    j.set("message", s.message);
    j.set("iterations", static_cast<double>(s.iterations));
    j.set("model_solves", static_cast<double>(s.model_solves));
    j.set("cache_hits", static_cast<double>(s.cache_hits));
    j.set("cache_misses", static_cast<double>(s.cache_misses));
    return j;
}

StartOutcome
start_from_json(const io::Json& j)
{
    StartOutcome s;
    s.index = io::uint_or<std::size_t>(j, "index", 0);
    s.seed = io::uint_or<std::uint64_t>(j, "seed", 0);
    s.initial_loss = j.number_or("initial_loss", 0.0);
    s.final_loss = j.number_or("final_loss", 0.0);
    s.converged = j.contains("converged") && j.at("converged").as_bool();
    s.failed = j.contains("failed") && j.at("failed").as_bool();
    if (j.contains("message"))
        s.message = j.at("message").as_string();
    s.iterations = io::uint_or<std::size_t>(j, "iterations", 0);
    s.model_solves = io::uint_or<std::uint64_t>(j, "model_solves", 0);
    s.cache_hits = io::uint_or<std::uint64_t>(j, "cache_hits", 0);
    s.cache_misses = io::uint_or<std::uint64_t>(j, "cache_misses", 0);
    return s;
}

io::Json
to_json(const FoldOutcome& f)
{
    io::Json j;
    j.set("fold", static_cast<double>(f.fold));
    j.set("train_error", f.train_error);
    j.set("validation_error", f.validation_error);
    j.set("failed", f.failed);
    j.set("message", f.message);
    return j;
}

FoldOutcome
fold_from_json(const io::Json& j)
{
    FoldOutcome f;
    f.fold = io::uint_or<std::size_t>(j, "fold", 0);
    f.train_error = j.number_or("train_error", 0.0);
    f.validation_error = j.number_or("validation_error", 0.0);
    f.failed = j.contains("failed") && j.at("failed").as_bool();
    if (j.contains("message"))
        f.message = j.at("message").as_string();
    return f;
}

io::Json
to_json(const FitError& e)
{
    io::Json j;
    j.set("observations", static_cast<double>(e.observations));
    j.set("throughput", e.throughput);
    j.set("latency", e.latency);
    j.set("worst_throughput", e.worst_throughput);
    return j;
}

FitError
fit_error_from_json(const io::Json& j)
{
    FitError e;
    e.observations = io::uint_or<std::size_t>(j, "observations", 0);
    e.throughput = j.number_or("throughput", 0.0);
    e.latency = j.number_or("latency", 0.0);
    e.worst_throughput = j.number_or("worst_throughput", 0.0);
    return e;
}

} // namespace

io::Json
to_json(const CalibrationReport& report)
{
    io::Json j;
    j.set("device", report.device);
    j.set("backend", kFitEngine);
    j.set("seed", hex_seed(report.seed));
    j.set("starts", static_cast<double>(report.starts));

    io::Json names{io::JsonArray{}};
    for (const auto& n : report.parameter_names)
        names.push_back(n);
    j.set("parameter_names", std::move(names));
    j.set("initial", vector_to_json(report.initial));
    j.set("fitted", vector_to_json(report.fitted));
    j.set("lower", vector_to_json(report.lower));
    j.set("upper", vector_to_json(report.upper));

    j.set("initial_loss", report.initial_loss);
    j.set("best_loss", report.best_loss);
    j.set("converged", report.converged);
    j.set("message", report.message);

    j.set("train_error", to_json(report.train_error));
    j.set("holdout_error", to_json(report.holdout_error));

    io::Json starts{io::JsonArray{}};
    for (const auto& s : report.start_outcomes)
        starts.push_back(to_json(s));
    j.set("start_outcomes", std::move(starts));

    io::Json folds{io::JsonArray{}};
    for (const auto& f : report.folds)
        folds.push_back(to_json(f));
    j.set("folds", std::move(folds));

    io::Json residuals{io::JsonArray{}};
    for (const auto& r : report.residuals)
        residuals.push_back(to_json(r));
    j.set("residuals", std::move(residuals));

    io::Json warnings{io::JsonArray{}};
    for (const auto& w : report.warnings)
        warnings.push_back(to_json(w));
    j.set("warnings", std::move(warnings));

    j.set("cache_hits", static_cast<double>(report.cache_hits));
    j.set("cache_misses", static_cast<double>(report.cache_misses));
    j.set("model_solves", static_cast<double>(report.model_solves));
    j.set("convergence", vector_to_json(report.convergence));

    j.set("fitted_hardware", report.fitted_hardware);
    return j;
}

CalibrationReport
report_from_json(const io::Json& j)
{
    CalibrationReport report;
    report.device = j.at("device").as_string();
    report.seed = io::uint_or<std::uint64_t>(j, "seed", 0);
    report.starts = io::uint_or<std::size_t>(j, "starts", 0);

    for (const auto& n : j.at("parameter_names").as_array())
        report.parameter_names.push_back(n.as_string());
    report.initial = vector_from_json(j.at("initial"));
    report.fitted = vector_from_json(j.at("fitted"));
    report.lower = vector_from_json(j.at("lower"));
    report.upper = vector_from_json(j.at("upper"));
    if (report.fitted.size() != report.parameter_names.size()
        || report.initial.size() != report.parameter_names.size())
        throw std::runtime_error(
            "calibration report: parameter vectors and names disagree");

    report.initial_loss = j.number_or("initial_loss", 0.0);
    report.best_loss = j.number_or("best_loss", 0.0);
    report.converged =
        j.contains("converged") && j.at("converged").as_bool();
    if (j.contains("message"))
        report.message = j.at("message").as_string();

    report.train_error = fit_error_from_json(j.at("train_error"));
    report.holdout_error = fit_error_from_json(j.at("holdout_error"));

    for (const auto& s : j.at("start_outcomes").as_array())
        report.start_outcomes.push_back(start_from_json(s));
    if (j.contains("folds")) {
        for (const auto& f : j.at("folds").as_array())
            report.folds.push_back(fold_from_json(f));
    }
    for (const auto& r : j.at("residuals").as_array())
        report.residuals.push_back(residual_record_from_json(r));
    if (j.contains("warnings")) {
        for (const auto& w : j.at("warnings").as_array())
            report.warnings.push_back(warning_from_json(w));
    }

    report.cache_hits = io::uint_or<std::uint64_t>(j, "cache_hits", 0);
    report.cache_misses = io::uint_or<std::uint64_t>(j, "cache_misses", 0);
    report.model_solves = io::uint_or<std::uint64_t>(j, "model_solves", 0);
    if (j.contains("convergence"))
        report.convergence = vector_from_json(j.at("convergence"));

    if (j.contains("fitted_hardware"))
        report.fitted_hardware = j.at("fitted_hardware");
    return report;
}

std::string
render(const CalibrationReport& report)
{
    std::ostringstream os;
    os << "calibration of " << report.device << " (" << kFitEngine << ", "
       << report.starts << " starts, seed "
       << hex_seed(report.seed) << ")\n";
    os << "  loss: " << report.initial_loss << " -> " << report.best_loss
       << (report.converged ? "  [converged: " : "  [not converged: ")
       << report.message << "]\n";
    os << "  parameters:\n";
    for (std::size_t i = 0; i < report.parameter_names.size(); ++i) {
        os << "    " << report.parameter_names[i] << ": "
           << report.initial[i] << " -> " << report.fitted[i] << "  (in ["
           << report.lower[i] << ", " << report.upper[i] << "])\n";
    }
    os << "  train:   " << report.train_error.observations
       << " obs, mean |rel thpt err| = "
       << 100.0 * report.train_error.throughput << "%, worst = "
       << 100.0 * report.train_error.worst_throughput << "%\n";
    if (report.holdout_error.observations > 0) {
        os << "  holdout: " << report.holdout_error.observations
           << " obs, mean |rel thpt err| = "
           << 100.0 * report.holdout_error.throughput << "%, worst = "
           << 100.0 * report.holdout_error.worst_throughput << "%\n";
    }
    for (const auto& f : report.folds) {
        os << "  fold " << f.fold << ": ";
        if (f.failed)
            os << "FAILED (" << f.message << ")\n";
        else
            os << "train " << 100.0 * f.train_error << "%, validation "
               << 100.0 * f.validation_error << "%\n";
    }
    os << "  cache: " << report.cache_hits << " hits / "
       << report.cache_misses << " misses (" << report.model_solves
       << " model solves)\n";
    for (const auto& w : report.warnings) {
        os << "  warning [" << w.kind << "] " << w.parameter << ": "
           << w.detail << "\n";
    }
    return os.str();
}

} // namespace lognic::calib
