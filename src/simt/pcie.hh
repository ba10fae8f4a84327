/**
 * @file
 * Frame-level PCIe link model: CRC detection + bounded retransmit.
 *
 * The baseline device model prices a host↔device copy as
 * `latency + bytes / bandwidth` and treats an injected corruption as
 * one whole-transfer link-layer replay (doubled time). That is how the
 * paper's §6.3 bandwidth model abstracts the link — but it gives
 * corruption an unrealistically coarse blast radius and no notion of a
 * link that stays bad.
 *
 * PcieLink refines the same §6.3 accounting to the link-layer frame
 * granularity real PCIe uses (TLPs under an LCRC): a transfer is split
 * into fixed-size frames, each carrying a CRC+sequence overhead on the
 * wire; a corrupted frame is detected by its CRC and retransmitted up
 * to a bounded number of times; a frame that exhausts its budget
 * forces a link retrain (a fixed time penalty) after which it is
 * assumed through — the transfer always completes, so corruption
 * faults never change *what* arrives, only *when*. That non-fatality
 * is what lets the recovery-equivalence harness demand byte-identical
 * responses under corruption schedules.
 *
 * Everything is deterministic: the per-frame corruption decisions come
 * from the seeded fault plan (via a callback, keeping this layer free
 * of fault-subsystem dependencies), and all arithmetic is integer/DES
 * time. With CRC disabled the link reproduces the legacy formula bit
 * for bit.
 */

#ifndef RHYTHM_SIMT_PCIE_HH
#define RHYTHM_SIMT_PCIE_HH

#include <cstdint>
#include <functional>

#include "des/time.hh"
#include "simt/kernel.hh"

namespace rhythm::simt {

/** Accounting for one planned transfer. */
struct PcieTransfer
{
    /** Total link occupancy (what the copy engine blocks for). */
    des::Time duration = 0;
    /** Payload + framing + retransmitted bytes actually on the wire. */
    uint64_t wireBytes = 0;
    /** Frames the payload was split into (0 with CRC off). */
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
 * link); owned by value inside Device.
 */
class PcieLink
{
  public:
    explicit PcieLink(const DeviceConfig &config) : config_(&config) {}

    /**
     * Time on the wire for @p bytes of payload, excluding faults and
     * framing — exactly the legacy `latency + bytes / bandwidth`
     * formula. This is the CRC-off cost and the baseline the §6.3
     * bandwidth model and fault injector both build on; both of
     * Device's copy models take their nominal transfer time from here.
     */
    des::Time nominal(uint64_t bytes) const
    {
        const double seconds = static_cast<double>(bytes) /
                               (config_->pcieBandwidthGBs * 1e9);
        return config_->pcieLatency + des::fromSeconds(seconds);
    }

    /**
     * Plans one CRC-protected transfer.
     * @param bytes Payload size.
     * @param frame_corrupt Consulted once per frame transmission
     *        (initial try and each retransmit); true = the frame
     *        arrives corrupted. Must be valid.
     */
    PcieTransfer transfer(uint64_t bytes,
                          const std::function<bool()> &frame_corrupt) const;

    /**
     * Plans one CRC-protected *chunk* of a larger transfer: identical
     * frame/CRC/retransmit accounting to transfer(), but the duration
     * excludes the per-transfer latency — the overlapped copy model
     * charges that once per transfer in the engine's setup phase, while
     * chunks pay pure wire occupancy (plus any retrain penalties).
     */
    PcieTransfer transferChunk(
        uint64_t bytes, const std::function<bool()> &frame_corrupt) const;

  private:
    PcieTransfer plan(uint64_t bytes,
                      const std::function<bool()> &frame_corrupt,
                      bool include_latency) const;

    const DeviceConfig *config_;
};

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_PCIE_HH
