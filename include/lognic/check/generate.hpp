/**
 * @file
 * Seed-deterministic random scenario generation for the conformance
 * harness (lognic::check).
 *
 * The harness cross-validates three independent implementations of the
 * LogNIC semantics (analytical model, discrete-event simulator, textbook
 * closed forms), so its inputs must be (a) reproducible from a single
 * 64-bit seed on every platform — a violation report is useless if the
 * scenario cannot be regenerated elsewhere — and (b) bounded so the
 * bottleneck utilization lands in a configurable regime instead of
 * arbitrarily deep overload or idle, where every comparator trivially
 * agrees (all-drops or all-zeros) and the run checks nothing.
 *
 * Platform stability is why the generator draws from runner::SplitMix64
 * (CheckRng): the std:: engines are exactly specified but the std::
 * *distributions* are implementation-defined, so a generator built on
 * them produces different scenarios per standard library. SplitMix64's
 * uniform draws are hand-rolled — identical output everywhere.
 */
#ifndef LOGNIC_CHECK_GENERATE_HPP_
#define LOGNIC_CHECK_GENERATE_HPP_

#include <cstdint>

#include "lognic/io/serialize.hpp"
#include "lognic/runner/seed.hpp"

namespace lognic::check {

/// The generator's platform-stable PRNG.
using CheckRng = runner::SplitMix64;

/**
 * Bounds for the scenario generator. The defaults keep scenarios small
 * enough that a single check trial (one base run plus the monotonicity
 * ladder) finishes in tens of milliseconds, while still exercising
 * fan-out, multi-engine vertices, mixed packet sizes, shared-medium
 * transfers, and non-exponential service.
 */
struct GeneratorConfig {
    // --- topology -----------------------------------------------------------
    std::uint32_t max_ips{3};
    std::uint32_t max_layers{2};
    std::uint32_t max_width{2};
    // --- hardware catalog ---------------------------------------------------
    double min_fixed_cost_us{0.4};
    double max_fixed_cost_us{2.0};
    double min_byte_rate_gigabytes{2.0};
    double max_byte_rate_gigabytes{8.0};
    std::uint32_t max_engines{4};
    std::uint32_t min_queue_capacity{8};
    std::uint32_t max_queue_capacity{64};
    // --- traffic ------------------------------------------------------------
    std::uint32_t max_classes{2};
    double min_packet_bytes{256.0};
    double max_packet_bytes{1500.0};
    /**
     * Offered-load regime: BW_in is set to u x the analytical model's
     * capacity with u drawn uniformly from [rho_min, rho_max], so the
     * bottleneck vertex's utilization is pinned to the regime under test
     * (the model capacity is load-independent, which makes this exact for
     * the binding term). M/G/1 single-queue scenarios additionally clamp
     * u to <= 0.8 — the Pollaczek-Khinchine comparison assumes an
     * effectively infinite queue, so blocking must stay negligible.
     */
    double rho_min{0.3};
    double rho_max{0.95};
    /// Fraction of scenarios that degenerate to a single queue (one IP,
    /// one engine, free transfers) so the closed-form oracles get steady
    /// exercise; the rest are layered DAGs.
    double single_queue_fraction{0.35};
    /// Per-edge probability that a DAG edge crosses the shared interface
    /// (alpha = delta) or the memory subsystem (beta = delta).
    double shared_medium_fraction{0.2};
};

/// One generated conformance input.
struct GeneratedScenario {
    io::Scenario scenario;
    /// True when the topology degenerates to a single queue (closed-form
    /// comparable).
    bool single_queue{false};
    /// The drawn load fraction u (the target bottleneck utilization).
    double target_utilization{0.0};
};

/**
 * Generate the scenario for @p seed. Pure function of (seed, cfg): the
 * same pair yields a byte-identical io::save_scenario() document on every
 * platform. The result always passes ExecutionGraph::validate().
 */
GeneratedScenario generate_scenario(std::uint64_t seed,
                                    const GeneratorConfig& cfg = {});

} // namespace lognic::check

#endif // LOGNIC_CHECK_GENERATE_HPP_
