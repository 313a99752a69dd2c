/**
 * @file
 * Parameter catalog for the PANIC academic prototype (case study #5, S4.6):
 * HardwareModels exposing its configurable compute units as IPs — Model 1
 * "Pipelined Chain" behind the RMT pipeline (Figure 15), and the
 * Model-2/Model-3 unit sets of Figures 16-19.
 */
#ifndef LOGNIC_DEVICES_PANIC_PROTO_HPP_
#define LOGNIC_DEVICES_PANIC_PROTO_HPP_

#include <string>
#include <vector>

#include "lognic/core/hardware_model.hpp"

namespace lognic::devices {

/**
 * A PANIC compute unit as an accelerator IP: @p engines engines, each
 * with per-op cost @p fixed and streaming rate @p stream.
 */
core::IpSpec panic_unit_ip(const std::string& name, Seconds fixed,
                           Bandwidth stream, std::uint32_t engines = 1);

/**
 * Hardware model for Model 1 "Pipelined Chain": IP 0 is the RMT pipeline
 * "rmt" (parse + descriptor, a fixed 300 ns with deterministic service and
 * engines enough never to queue at line rate), followed by @p units in
 * chain order. Line rate 100 Gbps.
 */
core::HardwareModel panic_pipelined_chain_hw(std::vector<core::IpSpec> units);

/**
 * Hardware model for the Model-2 "Parallelized Chain" scenario: three
 * accelerators A1/A2/A3 whose computing-throughput ratio is the paper's
 * 4:7:3 (40/70/30 Gbps at MTU).
 */
core::HardwareModel panic_parallel_chain_hw();

/**
 * Hardware model for the modified Model-3 scenario of Figures 18/19: four
 * units; IP4's parallelism is the swept knob (up to 8 engines of
 * 11.5 Gbps each).
 */
core::HardwareModel panic_hybrid_chain_hw();

} // namespace lognic::devices

#endif // LOGNIC_DEVICES_PANIC_PROTO_HPP_
