/**
 * @file
 * JSON calibration specs: the `lognic calibrate` document format.
 *
 *   {
 *     "scenario": { ...hardware + graph + traffic... },
 *     "calib": {
 *       "parameters": [
 *         "ip.md5.fixed_cost_us",                      // default bounds
 *         {"name": "memory_gbps", "lower": 10, "upper": 100}
 *       ],
 *       "loss": {"throughput_weight": 1.0, "latency_weight": 0.25,
 *                "p99_weight": 0, "kind": "relative", "huber_delta": 0},
 *       "backend": "least_squares",        // optional; the only engine
 *       "starts": 4, "threads": 1, "seed": 42,
 *       "max_iterations": 200,
 *       "holdout_fraction": 0.25, "k_folds": 0,
 *       "dataset": [ ...observation documents... ],    // measured, or:
 *       "generate": {"rates_gbps": [...], "packet_sizes": [...],
 *                    "replications": 1, "duration": 0.004, "seed": 42}
 *     }
 *   }
 *
 * Exactly one of "dataset" / "generate" must be present: load measured
 * points, or synthesize ground truth by simulating the scenario itself.
 * Each start memoizes every point it evaluates, so older specs' cache
 * size key is ignored.
 */
#ifndef LOGNIC_CALIB_SPEC_HPP_
#define LOGNIC_CALIB_SPEC_HPP_

#include <string>

#include "lognic/calib/calibrator.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::calib {

/// A parsed spec, ready to run.
struct CalibSpec {
    ParameterSpace space;
    Dataset data;
    CalibratorOptions options;
};

/**
 * Parse a calibration document. When the spec carries "generate", the DES
 * runs happen here (threaded per the spec's "threads").
 * @throws std::runtime_error on malformed documents.
 */
CalibSpec calib_spec_from_json(const io::Json& doc);

/// A small, fast-to-run sample spec (for `lognic example calib`).
std::string sample_calib_spec(const io::Scenario& base);

} // namespace lognic::calib

#endif // LOGNIC_CALIB_SPEC_HPP_
