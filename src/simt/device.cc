#include "simt/device.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hh"
#include "simt/pcie.hh"
#include "util/logging.hh"

namespace rhythm::simt {
namespace {

/// Demand remaining below this (device-seconds) counts as finished.
constexpr double kFinishEpsilon = 1e-10;
/// Occupancy caps are clamped to at least this share.
constexpr double kMinShare = 1e-6;

} // namespace

Device::Device(des::EventQueue &queue, DeviceConfig config)
    : queue_(queue), config_(std::move(config)),
      createTime_(queue.now()), poolLastUpdate_(queue.now()),
      engine_(config_.numSms)
{
    RHYTHM_ASSERT(config_.hardwareQueues >= 1);
    RHYTHM_ASSERT(config_.numSms >= 1);
    RHYTHM_ASSERT(config_.copyEngines >= 1);
    hwQueues_.resize(static_cast<size_t>(config_.hardwareQueues));
    h2dPool_.toDevice = true;
    d2hPool_.toDevice = false;
    const size_t engines = static_cast<size_t>(config_.copyEngines);
    h2dPool_.engines.resize(engines);
    d2hPool_.engines.resize(engines);
    overlapLast_ = queue.now();
}

int
Device::createStream()
{
    return nextStream_++;
}

void
Device::copyToDevice(int stream, uint64_t bytes, Callback done)
{
    enqueue(stream, Command{CommandType::CopyH2D, bytes, {}, std::move(done)});
}

void
Device::copyToHost(int stream, uint64_t bytes, Callback done)
{
    enqueue(stream, Command{CommandType::CopyD2H, bytes, {}, std::move(done)});
}

void
Device::launchKernel(int stream, KernelCost cost, Callback done)
{
    enqueue(stream, Command{CommandType::Kernel, 0, cost, std::move(done)});
}

void
Device::setFaultHooks(DeviceFaultHooks hooks)
{
    faultHooks_ = std::move(hooks);
}

void
Device::enqueue(int stream, Command cmd)
{
    RHYTHM_ASSERT(stream >= 0 && stream < nextStream_, "unknown stream");
    const int qi = stream % config_.hardwareQueues;
    auto &q = hwQueues_[static_cast<size_t>(qi)];
    q.push_back(std::move(cmd));
    ++pendingCommands_;
    if (q.size() == 1)
        startCommand(qi);
}

void
Device::startCommand(int queue_index)
{
    auto &q = hwQueues_[static_cast<size_t>(queue_index)];
    RHYTHM_ASSERT(!q.empty());
    // The command stays at the queue head (blocking the queue, and
    // keeping its completion callback alive) until it completes; only
    // its parameters travel into the execution machinery.
    Command &cmd = q.front();
    if (faultHooks_.commandStall && !cmd.stallChecked) {
        cmd.stallChecked = true;
        const des::Time stall = faultHooks_.commandStall();
        if (stall > 0) {
            OBS_INSTANT(obs::track::kEvents, "stream-stall", "fault",
                        {"queue", static_cast<uint64_t>(queue_index)},
                        {"stall_us", des::toMicros(stall)});
            OBS_COUNTER_ADD("device.stream_stalls", 1);
            // The stream wedges: its hardware queue stays blocked for
            // the stall duration, then the command proceeds normally.
            queue_.scheduleAfter(stall, [this, queue_index]() {
                startCommand(queue_index);
            });
            return;
        }
    }
    switch (cmd.type) {
      case CommandType::CopyH2D:
        assignEngine(h2dPool_, PendingCopy{cmd.bytes, queue_index});
        break;
      case CommandType::CopyD2H:
        assignEngine(d2hPool_, PendingCopy{cmd.bytes, queue_index});
        break;
      case CommandType::Kernel:
        // Model the fixed launch overhead as serial latency before the
        // kernel is admitted to the execution pool.
        queue_.scheduleAfter(config_.launchOverhead,
                             [this, cost = cmd.cost, queue_index]() {
                                 kernelAdmitted(cost, queue_index);
                             });
        break;
    }
}

void
Device::commandFinished(int queue_index)
{
    auto &q = hwQueues_[static_cast<size_t>(queue_index)];
    RHYTHM_ASSERT(!q.empty());
    Callback done = std::move(q.front().done);
    q.pop_front();
    RHYTHM_ASSERT(pendingCommands_ > 0);
    --pendingCommands_;
    if (!q.empty())
        startCommand(queue_index);
    if (done)
        done();
}

void
Device::accrueCopyOverlap()
{
    const des::Time now = queue_.now();
    const double dt = des::toSeconds(now - overlapLast_);
    overlapLast_ = now;
    if (dt <= 0.0 || h2dPool_.inFlight + d2hPool_.inFlight == 0)
        return;
    copyBusySeconds_ += dt;
    if (!pool_.empty())
        overlapSeconds_ += dt;
}

void
Device::assignEngine(CopyDirection &dir, PendingCopy copy)
{
    // Lowest free index keeps engine assignment deterministic under any
    // --sim-threads setting (assignment happens on the DES thread in
    // canonical event order).
    int idx = -1;
    for (size_t i = 0; i < dir.engines.size(); ++i) {
        if (!dir.engines[i].busy) {
            idx = static_cast<int>(i);
            break;
        }
    }
    if (idx < 0) {
        dir.waiting.push_back(copy);
        return;
    }
    accrueCopyOverlap();
    if (dir.inFlight++ == 0)
        dir.busySince = queue_.now();
    DmaEngine &eng = dir.engines[static_cast<size_t>(idx)];
    eng.busy = true;
    eng.assignedAt = queue_.now();
    eng.bytesLeft = copy.bytes;
    eng.totalBytes = copy.bytes;
    eng.queueIndex = copy.queueIndex;
    eng.extra = 0;
    if (dir.toDevice) {
        ++stats_.copiesToDevice;
        stats_.bytesToDevice += copy.bytes;
    } else {
        ++stats_.copiesToHost;
        stats_.bytesToHost += copy.bytes;
    }
    const des::Time nominal = PcieLink(config_).nominal(copy.bytes);
    // The copyExtra fault hook is consulted exactly once per transfer,
    // at assignment; the penalty lands on the final chunk so the
    // transfer still completes as one unit.
    if (faultHooks_.copyExtra)
        eng.extra = faultHooks_.copyExtra(dir.toDevice, copy.bytes, nominal);
    if (OBS_ENABLED()) {
        OBS_COUNTER_ADD(dir.toDevice ? "device.pcie_bytes_h2d"
                                     : "device.pcie_bytes_d2h",
                        copy.bytes);
        if (eng.extra > 0) {
            OBS_INSTANT(obs::track::kEvents, "pcie-fault", "fault",
                        {"extra_us", des::toMicros(eng.extra)},
                        {"bytes", copy.bytes});
            OBS_COUNTER_ADD("device.pcie_faults", 1);
        }
    }
    // DMA setup / per-transfer link latency: engines pay it
    // concurrently, then arbitrate for the serial wire chunk by chunk.
    // With one engine and whole transfers this is the serial model:
    // latency + wire + extra per transfer, one transfer at a time.
    queue_.scheduleAfter(config_.pcieLatency, [this, &dir, idx]() {
        engineReady(dir, idx);
    });
}

void
Device::engineReady(CopyDirection &dir, int engine_index)
{
    dir.ready.push_back(engine_index);
    if (!dir.linkBusy)
        startNextChunk(dir);
}

void
Device::startNextChunk(CopyDirection &dir)
{
    if (dir.linkBusy || dir.ready.empty())
        return;
    const int idx = dir.ready.front();
    dir.ready.pop_front();
    DmaEngine &eng = dir.engines[static_cast<size_t>(idx)];
    const uint64_t chunk =
        config_.copyChunkBytes == 0
            ? eng.bytesLeft
            : std::min<uint64_t>(config_.copyChunkBytes, eng.bytesLeft);
    const PcieLink link(config_);
    des::Time duration = 0;
    if (config_.pcieCrcEnabled) {
        // Frame-level CRC + bounded retransmit (simt/pcie.hh). The
        // per-frame corruption oracle is the installed hook; without
        // one no frame ever corrupts, but framing overhead still rides
        // on the wire — CRC protection costs bandwidth even when
        // nothing goes wrong, and the §6.3 accounting must show that.
        const PcieTransfer xfer = link.plan(chunk, [this, &dir]() {
            return faultHooks_.frameCorrupt &&
                   faultHooks_.frameCorrupt(dir.toDevice);
        });
        duration = xfer.duration;
        stats_.pcieFrames += xfer.frames;
        stats_.pcieWireBytes += xfer.wireBytes;
        stats_.pcieCrcErrors += xfer.crcErrors;
        stats_.pcieRetransmittedBytes += xfer.retransmittedBytes;
        stats_.pcieRetrains += xfer.retrains;
        if (OBS_ENABLED()) {
            OBS_COUNTER_ADD("pcie.crc.frames", xfer.frames);
            OBS_COUNTER_ADD("pcie.crc.wire_bytes", xfer.wireBytes);
            if (xfer.crcErrors > 0)
                OBS_COUNTER_ADD("pcie.crc.errors", xfer.crcErrors);
            if (xfer.retransmittedBytes > 0)
                OBS_COUNTER_ADD("pcie.crc.retransmitted_bytes",
                                xfer.retransmittedBytes);
            if (xfer.retrains > 0)
                OBS_COUNTER_ADD("pcie.crc.retrains", xfer.retrains);
        }
    } else {
        duration = link.wireTime(chunk);
    }
    if (chunk >= eng.bytesLeft && eng.extra > 0)
        duration += eng.extra;
    dir.linkBusy = true;
    if (dir.toDevice)
        ++stats_.copyChunksH2D;
    else
        ++stats_.copyChunksD2H;
    if (OBS_ENABLED()) {
        const uint32_t tr =
            (dir.toDevice ? obs::track::kPcieH2DEngineBase
                          : obs::track::kPcieD2HEngineBase) +
            static_cast<uint32_t>(idx);
        OBS_TRACK_NAME(tr, (dir.toDevice ? "pcie h2d ce" : "pcie d2h ce") +
                               std::to_string(idx));
        OBS_SPAN_COMPLETE(tr, dir.toDevice ? "chunk h2d" : "chunk d2h",
                          "pcie", queue_.now(), queue_.now() + duration,
                          {"bytes", chunk},
                          {"transfer_bytes", eng.totalBytes});
    }
    queue_.scheduleAfter(duration, [this, &dir, idx, chunk]() {
        chunkDone(dir, idx, chunk);
    });
}

void
Device::chunkDone(CopyDirection &dir, int engine_index, uint64_t chunk)
{
    dir.linkBusy = false;
    DmaEngine &eng = dir.engines[static_cast<size_t>(engine_index)];
    RHYTHM_ASSERT(chunk <= eng.bytesLeft);
    eng.bytesLeft -= chunk;
    if (eng.bytesLeft > 0) {
        // More chunks to go: rejoin the round-robin service order.
        dir.ready.push_back(engine_index);
    } else {
        accrueCopyOverlap();
        eng.busy = false;
        eng.busySeconds += des::toSeconds(queue_.now() - eng.assignedAt);
        // Close the direction's busy interval before the next waiting
        // transfer is assigned, so back-to-back transfers on one engine
        // each add exactly their own latency + wire + extra.
        if (--dir.inFlight == 0)
            dir.busySeconds += des::toSeconds(queue_.now() - dir.busySince);
        const int qi = eng.queueIndex;
        if (OBS_ENABLED()) {
            const uint32_t tr =
                dir.toDevice ? obs::track::kPcieH2D : obs::track::kPcieD2H;
            OBS_TRACK_NAME(tr, dir.toDevice ? "pcie h2d" : "pcie d2h");
            OBS_SPAN_COMPLETE(tr,
                              dir.toDevice ? "copy h2d" : "copy d2h",
                              "pcie", eng.assignedAt, queue_.now(),
                              {"bytes", eng.totalBytes},
                              {"engine", static_cast<uint64_t>(engine_index)});
        }
        if (!dir.waiting.empty()) {
            PendingCopy next = dir.waiting.front();
            dir.waiting.pop_front();
            assignEngine(dir, next);
        }
        commandFinished(qi);
    }
    startNextChunk(dir);
}

void
Device::kernelAdmitted(KernelCost cost, int queue_index)
{
    advancePool();
    RunningKernel rk;
    rk.remaining = std::max(cost.deviceSeconds, kFinishEpsilon);
    rk.cap = std::clamp(cost.maxShare, kMinShare, 1.0);
    rk.queueIndex = queue_index;
    rk.admitted = queue_.now();
    ++stats_.kernelsLaunched;
    stats_.kernelMemoryBytes += cost.memoryBytes;
    if (OBS_ENABLED())
        OBS_COUNTER_ADD("device.kernels", 1);
    rk.cost = std::move(cost);
    pool_.push_back(std::move(rk));
    recomputeRates();
    reschedulePoolEvent();
}

void
Device::advancePool()
{
    // Pool membership is about to change; settle the copy/kernel
    // overlap integral against the old membership first.
    accrueCopyOverlap();
    const des::Time now = queue_.now();
    const double dt = des::toSeconds(now - poolLastUpdate_);
    poolLastUpdate_ = now;
    if (dt <= 0.0 || pool_.empty())
        return;
    double total_rate = 0.0;
    for (auto &k : pool_) {
        k.remaining -= k.rate * dt;
        total_rate += k.rate;
    }
    stats_.kernelBusySeconds += total_rate * dt;
}

void
Device::recomputeRates()
{
    // Water-filling: capacity 1.0 shared equally, except that a kernel
    // never receives more than its occupancy cap; freed capacity is
    // redistributed among the uncapped kernels.
    for (auto &k : pool_)
        k.rate = 0.0;
    double capacity = 1.0;
    size_t unset = pool_.size();
    std::vector<bool> fixed(pool_.size(), false);
    while (unset > 0) {
        const double share = capacity / static_cast<double>(unset);
        bool changed = false;
        for (size_t i = 0; i < pool_.size(); ++i) {
            if (!fixed[i] && pool_[i].cap <= share) {
                pool_[i].rate = pool_[i].cap;
                capacity -= pool_[i].cap;
                fixed[i] = true;
                --unset;
                changed = true;
            }
        }
        if (!changed) {
            for (size_t i = 0; i < pool_.size(); ++i) {
                if (!fixed[i])
                    pool_[i].rate = share;
            }
            break;
        }
    }
}

void
Device::reschedulePoolEvent()
{
    if (poolEventValid_) {
        queue_.cancel(poolEvent_);
        poolEventValid_ = false;
    }
    if (pool_.empty())
        return;
    double min_finish = 1e300;
    for (const auto &k : pool_) {
        if (k.rate > 0.0)
            min_finish = std::min(min_finish, k.remaining / k.rate);
    }
    RHYTHM_ASSERT(min_finish < 1e300, "kernel pool stalled with zero rates");
    // Round up a picosecond so the earliest kernel is guaranteed done.
    const des::Time delta = des::fromSeconds(min_finish) + 1;
    poolEvent_ = queue_.scheduleAfter(delta, [this]() { poolEventFired(); });
    poolEventValid_ = true;
}

void
Device::poolEventFired()
{
    poolEventValid_ = false;
    advancePool();
    std::vector<int> finished_queues;
    for (size_t i = 0; i < pool_.size();) {
        if (pool_[i].remaining <= kFinishEpsilon) {
            const RunningKernel &rk = pool_[i];
            if (OBS_ENABLED()) {
                const uint32_t tr = obs::track::kHwqBase +
                    static_cast<uint32_t>(rk.queueIndex);
                OBS_TRACK_NAME(tr, "hwq " + std::to_string(rk.queueIndex));
                OBS_SPAN_COMPLETE(
                    tr,
                    rk.cost.name.empty() ? std::string("kernel")
                                         : rk.cost.name,
                    "kernel", rk.admitted, queue_.now(),
                    {"occupancy", rk.cap},
                    {"simd_efficiency", rk.cost.simdEfficiency},
                    {"global_transactions", rk.cost.globalTransactions},
                    {"warps", rk.cost.warps},
                    {"memory_bound",
                     std::string(rk.cost.memoryBound ? "yes" : "no")});
            }
            finished_queues.push_back(rk.queueIndex);
            pool_.erase(pool_.begin() + static_cast<long>(i));
        } else {
            ++i;
        }
    }
    recomputeRates();
    reschedulePoolEvent();
    // Callbacks run after the pool is consistent; they may enqueue more
    // commands (the event loop pipelines cohorts).
    for (int qi : finished_queues)
        commandFinished(qi);
}

Device::Stats
Device::stats() const
{
    Stats s = stats_;
    // Fold in the in-progress interval since the last pool update.
    const double dt = des::toSeconds(queue_.now() - poolLastUpdate_);
    if (dt > 0.0) {
        double total_rate = 0.0;
        for (const auto &k : pool_)
            total_rate += k.rate;
        s.kernelBusySeconds += total_rate * dt;
    }
    // Direction and per-engine busy time span assignment → completion,
    // with the intervals still open at `now` folded in.
    const des::Time now = queue_.now();
    auto fold = [now](const CopyDirection &dir, double &busy,
                      std::vector<double> &engines) {
        busy = dir.busySeconds;
        if (dir.inFlight > 0)
            busy += des::toSeconds(now - dir.busySince);
        engines.reserve(dir.engines.size());
        for (const auto &eng : dir.engines) {
            double secs = eng.busySeconds;
            if (eng.busy)
                secs += des::toSeconds(now - eng.assignedAt);
            engines.push_back(secs);
        }
    };
    fold(h2dPool_, s.h2dBusySeconds, s.engineBusySecondsH2D);
    fold(d2hPool_, s.d2hBusySeconds, s.engineBusySecondsD2H);
    s.copyBusySeconds = copyBusySeconds_;
    s.overlapSeconds = overlapSeconds_;
    // Fold the open copy-busy interval without mutating the integrals.
    const double odt = des::toSeconds(now - overlapLast_);
    if (odt > 0.0 && h2dPool_.inFlight + d2hPool_.inFlight > 0) {
        s.copyBusySeconds += odt;
        if (!pool_.empty())
            s.overlapSeconds += odt;
    }
    return s;
}

double
Device::kernelUtilization() const
{
    const double elapsed = des::toSeconds(queue_.now() - createTime_);
    if (elapsed <= 0.0)
        return 0.0;
    return stats().kernelBusySeconds / elapsed;
}

bool
Device::idle() const
{
    return pendingCommands_ == 0;
}

} // namespace rhythm::simt
