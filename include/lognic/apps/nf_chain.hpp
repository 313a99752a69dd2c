/**
 * @file
 * Case study #4 (S4.5): network-function placement on the BlueField-2.
 *
 * The middlebox chain FW -> LB -> DPI -> NAT -> PE runs on the DPU. Each
 * NF except DPI can be placed either on the ARM complex or on its matching
 * accelerator; ARM-resident NFs execute run-to-completion in one merged
 * core stage (whose cost also covers the descriptor preparation for every
 * offloaded NF), while offloaded NFs become accelerator vertices chained
 * in flow order, each hop crossing the SoC interconnect.
 */
#ifndef LOGNIC_APPS_NF_CHAIN_HPP_
#define LOGNIC_APPS_NF_CHAIN_HPP_

#include <array>
#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/devices/bluefield2.hpp"

namespace lognic::apps {

/// Placement choice: true = offload to the accelerator. DPI is always ARM.
struct NfPlacement {
    bool fw{false};
    bool lb{false};
    bool nat{false};
    bool pe{false};

    bool offloaded(devices::NetworkFunction nf) const;
    std::string to_string() const;
};

/// All 16 placement combinations.
std::vector<NfPlacement> all_placements();

/// Everything on ARM.
NfPlacement arm_only_placement();

/// Every accelerable NF on its accelerator.
NfPlacement accelerator_only_placement();

struct NfChainScenario {
    core::HardwareModel hw;
    core::ExecutionGraph graph;
};

/// Build the hardware model + execution graph for @p placement.
NfChainScenario make_nf_chain(const NfPlacement& placement);

} // namespace lognic::apps

#endif // LOGNIC_APPS_NF_CHAIN_HPP_
