#include "simt/pcie.hh"

#include "util/logging.hh"

namespace rhythm::simt {

PcieTransfer
PcieLink::plan(uint64_t bytes,
               const std::function<bool()> &frame_corrupt) const
{
    RHYTHM_ASSERT(frame_corrupt, "frame corruption oracle required");
    const uint64_t frame_payload = config_->pcieFrameBytes;
    RHYTHM_ASSERT(frame_payload > 0, "frame size must be positive");

    PcieTransfer t;
    t.frames = (bytes + frame_payload - 1) / frame_payload;
    for (uint64_t f = 0; f < t.frames; ++f) {
        const uint64_t payload =
            f + 1 < t.frames ? frame_payload
                             : bytes - f * frame_payload;
        const uint64_t frame_wire = payload + config_->pcieFrameOverheadBytes;
        t.wireBytes += frame_wire;
        // Initial transmission, then bounded retransmits. A frame that
        // stays corrupt through the whole budget forces a retrain and
        // is assumed through afterwards (the link is re-equalized), so
        // the transfer always terminates.
        uint32_t attempts_left = config_->pcieMaxRetransmits;
        while (frame_corrupt()) {
            ++t.crcErrors;
            if (attempts_left == 0) {
                ++t.retrains;
                break;
            }
            --attempts_left;
            t.wireBytes += frame_wire;
            t.retransmittedBytes += frame_wire;
        }
    }

    t.duration = wireTime(t.wireBytes) +
                 t.retrains * config_->pcieRetrainTime;
    return t;
}

} // namespace rhythm::simt
