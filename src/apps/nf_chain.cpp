#include "lognic/apps/nf_chain.hpp"

#include <stdexcept>

namespace lognic::apps {

using devices::NetworkFunction;

bool
NfPlacement::offloaded(NetworkFunction nf) const
{
    switch (nf) {
      case NetworkFunction::kFirewall:
        return fw;
      case NetworkFunction::kLoadBalancer:
        return lb;
      case NetworkFunction::kDpi:
        return false;
      case NetworkFunction::kNat:
        return nat;
      case NetworkFunction::kEncryption:
        return pe;
    }
    throw std::invalid_argument("NfPlacement: unknown network function");
}

std::string
NfPlacement::to_string() const
{
    std::string out;
    for (NetworkFunction nf : devices::nf_chain_order()) {
        if (!out.empty())
            out += '-';
        out += devices::to_string(nf);
        out += offloaded(nf) ? "@hw" : "@arm";
    }
    return out;
}

std::vector<NfPlacement>
all_placements()
{
    std::vector<NfPlacement> out;
    for (int mask = 0; mask < 16; ++mask) {
        NfPlacement p;
        p.fw = (mask & 1) != 0;
        p.lb = (mask & 2) != 0;
        p.nat = (mask & 4) != 0;
        p.pe = (mask & 8) != 0;
        out.push_back(p);
    }
    return out;
}

NfPlacement
arm_only_placement()
{
    return NfPlacement{};
}

NfPlacement
accelerator_only_placement()
{
    return NfPlacement{true, true, true, true};
}

NfChainScenario
make_nf_chain(const NfPlacement& placement)
{
    core::HardwareModel hw = devices::bluefield2();

    // The merged ARM stage: every ARM-resident NF plus the preparation
    // overhead of every offloaded NF.
    Seconds arm_fixed{0.0};
    double arm_passes = 0.0;
    std::vector<NetworkFunction> offloads;
    for (NetworkFunction nf : devices::nf_chain_order()) {
        if (placement.offloaded(nf)) {
            arm_fixed += devices::bf2_offload_prep(nf);
            offloads.push_back(nf);
        } else {
            arm_fixed += devices::bf2_arm_cost(nf, Bytes{0.0});
            arm_passes += 1.0;
        }
    }
    const core::IpId arm_ip =
        devices::add_arm_ip(hw, "arm", arm_fixed, arm_passes);

    core::ExecutionGraph g("nfchain-" + placement.to_string());
    const auto ingress = g.add_ingress();
    const auto egress = g.add_egress();
    const auto v_arm = g.add_ip_vertex("arm", arm_ip);
    g.add_edge(ingress, v_arm, core::EdgeParams{1.0, 0.0, 0.0, {}});

    core::VertexId prev = v_arm;
    for (NetworkFunction nf : offloads) {
        const core::IpId accel = *hw.find_ip(devices::nf_accelerator(nf));
        const auto v = g.add_ip_vertex(devices::nf_accelerator(nf), accel);
        // Payload crosses the SoC interconnect into the accelerator domain.
        g.add_edge(prev, v, core::EdgeParams{1.0, 1.0, 0.0, {}});
        prev = v;
    }
    // Final hop to the TX pipeline; it recrosses the interconnect only when
    // leaving an accelerator domain.
    core::EdgeParams out;
    out.delta = 1.0;
    out.alpha = offloads.empty() ? 0.0 : 1.0;
    g.add_edge(prev, egress, out);

    return NfChainScenario{std::move(hw), std::move(g)};
}

} // namespace lognic::apps
