/**
 * @file
 * JSON exploration specs: the `lognic explore` document format.
 *
 *   {
 *     "scenario": { ...hardware + graph + traffic... },   // or:
 *     "dse": {
 *       "base": "nf_chain",            // ARM-only NF chain as the base
 *       "traffic": {"rate_gbps": 50, "packet_bytes": 1500},
 *       "knobs": [
 *         "placement.nf_chain",        // bare string: default levels
 *         {"path": "vertex.arm.parallelism", "values": [1, 2, 4],
 *          "cost_weight": 1.0}
 *       ],
 *       "objectives": ["throughput_gbps", "p99_latency_us"],
 *       "constraints": [{"metric": "drop_rate", "upper": 0.01}],
 *       "strategy": "exhaustive",      // mutation | nsga2
 *       "prune": "on",                 // off | explain (default on)
 *       "seed": 42, "budget": 256, "population": 16, "generations": 8,
 *       "exhaustive_limit": 65536,
 *       "des": {"enabled": true, "replications": 3, "duration": 0.01,
 *               "warmup_fraction": 0.2}
 *     }
 *   }
 *
 * Exactly one of "scenario" / dse."base" must be present. The memo of
 * scored configs is unbounded, so older specs' cache size and shard keys
 * are ignored. Thread count is deliberately NOT part of the spec (it may
 * never influence results); the CLI wires --threads into ExploreOptions
 * directly.
 */
#ifndef LOGNIC_DSE_SPEC_HPP_
#define LOGNIC_DSE_SPEC_HPP_

#include <string>
#include <vector>

#include "lognic/dse/design_space.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/io/json.hpp"

namespace lognic::dse {

/// A parsed spec, ready to run.
struct ExploreSpec {
    DesignSpace space;
    std::vector<ObjectiveSpec> objectives;
    std::vector<Constraint> constraints;
    ExploreOptions options;

    explicit ExploreSpec(DesignSpace s) : space(std::move(s)) {}
};

/// Parse an exploration document.
/// @throws std::runtime_error / std::invalid_argument on malformed input.
ExploreSpec explore_spec_from_json(const io::Json& doc);

/**
 * The placement study spec (for `lognic example explore`): exhaustive
 * search over all 16 NF-chain placements, throughput vs p99 latency —
 * whose frontier contains the paper's LogNIC-opt placement (S4.5,
 * figures 13/14).
 */
std::string sample_explore_spec();

} // namespace lognic::dse

#endif // LOGNIC_DSE_SPEC_HPP_
