#include "lognic/devices/panic_proto.hpp"

namespace lognic::devices {

core::IpSpec
panic_unit_ip(const std::string& name, Seconds fixed, Bandwidth stream,
              std::uint32_t engines)
{
    core::ServiceModel svc;
    svc.fixed_cost = fixed;
    svc.byte_rate = stream;

    core::IpSpec spec;
    spec.name = name;
    spec.kind = core::IpKind::kAccelerator;
    spec.roofline = core::ExtendedRoofline(svc, {});
    spec.max_engines = engines;
    spec.default_queue_capacity = 32;
    return spec;
}

core::HardwareModel
panic_pipelined_chain_hw(std::vector<core::IpSpec> units)
{
    core::HardwareModel hw("PANIC-model1", Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(100.0));
    // The RMT pipeline is a fixed-latency stage, not a server: 128 engines
    // cover the ~59 packets it holds at 100 Gbps of 64 B packets.
    core::IpSpec rmt = panic_unit_ip("rmt", Seconds::from_nanos(300.0),
                                     Bandwidth::from_gbps(1e6), 128);
    rmt.default_queue_capacity = 256;
    rmt.service_scv = 0.0;
    hw.add_ip(std::move(rmt));
    for (core::IpSpec& unit : units)
        hw.add_ip(std::move(unit));
    return hw;
}

core::HardwareModel
panic_parallel_chain_hw()
{
    // Compute-throughput ratio A1:A2:A3 = 4:7:3 (40/70/30 Gbps at MTU):
    // identical 10 Gbps engines, 4/7/3 of them.
    core::HardwareModel hw("PANIC-model2", Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(100.0),
                           Bandwidth::from_gbps(100.0));
    const Seconds fixed = Seconds::from_micros(0.2);
    const Bandwidth stream = Bandwidth::from_gbps(12.0);
    hw.add_ip(panic_unit_ip("a1", fixed, stream, 4));
    hw.add_ip(panic_unit_ip("a2", fixed, stream, 7));
    hw.add_ip(panic_unit_ip("a3", fixed, stream, 3));
    return hw;
}

core::HardwareModel
panic_hybrid_chain_hw()
{
    // Four units of 11.5 Gbps-per-engine compute (at MTU).
    core::HardwareModel hw("PANIC-model3", Bandwidth::from_gbps(200.0),
                           Bandwidth::from_gbps(200.0),
                           Bandwidth::from_gbps(100.0));
    const Seconds fixed = Seconds::from_micros(0.1);
    const Bandwidth stream = Bandwidth::from_gbps(12.72);
    hw.add_ip(panic_unit_ip("ip1", fixed, stream, 8));
    hw.add_ip(panic_unit_ip("ip2", fixed, stream, 4));
    hw.add_ip(panic_unit_ip("ip3", fixed, stream, 6));
    hw.add_ip(panic_unit_ip("ip4", fixed, stream, 8));
    return hw;
}

} // namespace lognic::devices
