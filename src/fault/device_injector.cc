#include "fault/device_injector.hh"

namespace rhythm::fault {

void
installDeviceFaults(simt::Device &device, FaultPlan &plan,
                    des::EventQueue &queue)
{
    simt::DeviceFaultHooks hooks;
    hooks.commandStall = [&plan, &queue]() -> des::Time {
        const Decision d = plan.at(Site::StreamStall, queue.now());
        return d.fire ? d.delay : 0;
    };
    // With the frame-CRC link model on, Site::PcieCorrupt is consulted
    // per frame through frameCorrupt; copyExtra's whole-transfer replay
    // must then NOT consult it again, or one corruption schedule would
    // be drawn twice per copy.
    const bool frame_crc = device.config().pcieCrcEnabled;
    hooks.copyExtra = [&plan, &queue, frame_crc](
                          bool, uint64_t, des::Time nominal) -> des::Time {
        des::Time extra = 0;
        if (!frame_crc) {
            const Decision corrupt =
                plan.at(Site::PcieCorrupt, queue.now());
            if (corrupt.fire) {
                // Corruption is detected by the link-layer LCRC and the
                // transfer replays: the payload crosses the wire twice.
                extra += nominal;
            }
        }
        const Decision degrade = plan.at(Site::PcieDegrade, queue.now());
        if (degrade.fire && degrade.factor > 1.0) {
            extra += des::fromSeconds(des::toSeconds(nominal) *
                                      (degrade.factor - 1.0));
        }
        return extra;
    };
    if (frame_crc) {
        hooks.frameCorrupt = [&plan, &queue](bool) -> bool {
            return plan.at(Site::PcieCorrupt, queue.now()).fire;
        };
    }
    device.setFaultHooks(std::move(hooks));
}

} // namespace rhythm::fault
