/**
 * @file
 * The PCIe link model: wire time, plus frame-level CRC with bounded
 * retransmit.
 *
 * Every host↔device copy costs a per-transfer latency (the DMA setup
 * phase, charged by the copy engines in simt/device.hh) plus wire time,
 * `bytes / bandwidth` — the paper's §6.3 bandwidth accounting. With the
 * CRC model off, an injected corruption is one whole-transfer
 * link-layer replay (doubled time, via the copyExtra fault hook).
 *
 * The framed planner refines the same accounting to the link-layer
 * frame granularity real PCIe uses (TLPs under an LCRC): a transfer is
 * split into fixed-size frames, each carrying a CRC+sequence overhead
 * on the wire; a corrupted frame is detected by its CRC and
 * retransmitted up to a bounded number of times; a frame that exhausts
 * its budget forces a link retrain (a fixed time penalty) after which
 * it is assumed through — the transfer always completes, so corruption
 * faults never change *what* arrives, only *when*. That non-fatality
 * is what lets the recovery-equivalence harness demand byte-identical
 * responses under corruption schedules.
 *
 * Everything is deterministic: the per-frame corruption decisions come
 * from the seeded fault plan (via a callback, keeping this layer free
 * of fault-subsystem dependencies), and all arithmetic is integer/DES
 * time.
 */

#ifndef RHYTHM_SIMT_PCIE_HH
#define RHYTHM_SIMT_PCIE_HH

#include <cstdint>
#include <functional>

#include "des/time.hh"
#include "simt/kernel.hh"

namespace rhythm::simt {

/** Accounting for one framed transfer (or chunk of one). */
struct PcieTransfer
{
    /** Wire occupancy: framed bytes at link bandwidth plus retrain
     *  penalties. Excludes the per-transfer latency. */
    des::Time duration = 0;
    /** Payload + framing + retransmitted bytes actually on the wire. */
    uint64_t wireBytes = 0;
    /** Frames the payload was split into. */
    uint64_t frames = 0;
    /** Frame transmissions rejected by CRC. */
    uint64_t crcErrors = 0;
    /** Wire bytes spent on retransmissions. */
    uint64_t retransmittedBytes = 0;
    /** Frames that exhausted the retransmit budget (link retrains). */
    uint64_t retrains = 0;
};

/**
 * The link model. Stateless between transfers (retrains restore the
 * link); constructed on demand from the device configuration.
 */
class PcieLink
{
  public:
    explicit PcieLink(const DeviceConfig &config) : config_(&config) {}

    /** Time @p bytes occupy the wire at the link bandwidth. */
    des::Time wireTime(uint64_t bytes) const
    {
        return des::fromSeconds(static_cast<double>(bytes) /
                                (config_->pcieBandwidthGBs * 1e9));
    }

    /**
     * Fault-free cost of a whole unframed transfer: latency + wire
     * time. The baseline the fault injector scales its penalties from.
     */
    des::Time nominal(uint64_t bytes) const
    {
        return config_->pcieLatency + wireTime(bytes);
    }

    /**
     * Plans @p bytes of payload under the frame CRC model.
     * @param frame_corrupt Consulted once per frame transmission
     *        (initial try and each retransmit); true = the frame
     *        arrives corrupted. Must be valid.
     */
    PcieTransfer plan(uint64_t bytes,
                      const std::function<bool()> &frame_corrupt) const;

  private:
    const DeviceConfig *config_;
};

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_PCIE_HH
