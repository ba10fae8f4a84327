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
        if (pooledCopies())
            assignEngine(h2dPool_, PendingCopy{cmd.bytes, true, queue_index});
        else
            startCopy(h2d_, PendingCopy{cmd.bytes, true, queue_index});
        break;
      case CommandType::CopyD2H:
        if (pooledCopies())
            assignEngine(d2hPool_, PendingCopy{cmd.bytes, false, queue_index});
        else
            startCopy(d2h_, PendingCopy{cmd.bytes, false, queue_index});
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
Device::startCopy(CopyEngine &engine, PendingCopy copy)
{
    if (engine.busy) {
        engine.waiting.push_back(copy);
        return;
    }
    engine.busy = true;
    accrueCopyOverlap();
    ++activeCopies_;
    if (copy.toDevice) {
        ++stats_.copiesToDevice;
        stats_.bytesToDevice += copy.bytes;
    } else {
        ++stats_.copiesToHost;
        stats_.bytesToHost += copy.bytes;
    }
    const PcieLink link(config_);
    const des::Time nominal = link.nominal(copy.bytes);
    des::Time base = nominal;
    if (config_.pcieCrcEnabled) {
        // Frame-level CRC + bounded retransmit (simt/pcie.hh). The
        // per-frame corruption oracle is the installed hook; without
        // one no frame ever corrupts, but framing overhead still rides
        // on the wire — CRC protection costs bandwidth even when
        // nothing goes wrong, and the §6.3 accounting must show that.
        const PcieTransfer xfer = link.transfer(
            copy.bytes, [this, &copy]() {
                return faultHooks_.frameCorrupt &&
                       faultHooks_.frameCorrupt(copy.toDevice);
            });
        base = xfer.duration;
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
    }
    des::Time extra = 0;
    if (faultHooks_.copyExtra)
        extra = faultHooks_.copyExtra(copy.toDevice, copy.bytes, nominal);
    const des::Time duration = base + extra;
    engine.busySeconds += des::toSeconds(duration);
    if (OBS_ENABLED()) {
        const uint32_t tr =
            copy.toDevice ? obs::track::kPcieH2D : obs::track::kPcieD2H;
        OBS_TRACK_NAME(tr, copy.toDevice ? "pcie h2d" : "pcie d2h");
        OBS_SPAN_COMPLETE(tr, copy.toDevice ? "copy h2d" : "copy d2h",
                          "pcie", queue_.now(), queue_.now() + duration,
                          {"bytes", copy.bytes});
        OBS_COUNTER_ADD(copy.toDevice ? "device.pcie_bytes_h2d"
                                      : "device.pcie_bytes_d2h",
                        copy.bytes);
        if (extra > 0) {
            OBS_INSTANT(obs::track::kEvents, "pcie-fault", "fault",
                        {"extra_us", des::toMicros(extra)},
                        {"bytes", copy.bytes});
            OBS_COUNTER_ADD("device.pcie_faults", 1);
        }
    }
    queue_.scheduleAfter(duration, [this, &engine, qi = copy.queueIndex]() {
        copyFinished(engine);
        commandFinished(qi);
    });
}

void
Device::copyFinished(CopyEngine &engine)
{
    accrueCopyOverlap();
    --activeCopies_;
    engine.busy = false;
    if (!engine.waiting.empty()) {
        PendingCopy next = engine.waiting.front();
        engine.waiting.pop_front();
        startCopy(engine, next);
    }
}

void
Device::accrueCopyOverlap()
{
    const des::Time now = queue_.now();
    const double dt = des::toSeconds(now - overlapLast_);
    overlapLast_ = now;
    if (dt <= 0.0 || activeCopies_ == 0)
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
    ++activeCopies_;
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
    // The copyExtra fault hook is consulted exactly once per transfer
    // (same contract as the legacy path); the penalty lands on the
    // final chunk so the transfer still completes as one unit.
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
    des::Time duration = 0;
    if (config_.pcieCrcEnabled) {
        // Chunks carry the same frame/CRC/retransmit accounting as a
        // whole legacy transfer; only the per-transfer latency is
        // excluded (charged once in the engine setup phase).
        const PcieLink link(config_);
        const PcieTransfer xfer = link.transferChunk(
            chunk, [this, &dir]() {
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
        const double seconds = static_cast<double>(chunk) /
                               (config_.pcieBandwidthGBs * 1e9);
        duration = des::fromSeconds(seconds);
    }
    if (chunk >= eng.bytesLeft && eng.extra > 0)
        duration += eng.extra;
    dir.linkBusy = true;
    dir.linkBusySeconds += des::toSeconds(duration);
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
        chunkDone(dir, idx, chunk, 0);
    });
}

void
Device::chunkDone(CopyDirection &dir, int engine_index, uint64_t chunk,
                  des::Time /*wire*/)
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
        --activeCopies_;
        eng.busy = false;
        eng.busySeconds += des::toSeconds(queue_.now() - eng.assignedAt);
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
    s.h2dBusySeconds = h2d_.busySeconds;
    s.d2hBusySeconds = d2h_.busySeconds;
    if (pooledCopies()) {
        // Pooled path: direction busy time is serial link occupancy
        // (the legacy single-engine analog); per-engine busy time spans
        // assignment → completion, with open intervals folded in.
        s.h2dBusySeconds = h2dPool_.linkBusySeconds;
        s.d2hBusySeconds = d2hPool_.linkBusySeconds;
        const des::Time now = queue_.now();
        auto fold = [now](const CopyDirection &dir) {
            std::vector<double> busy;
            busy.reserve(dir.engines.size());
            for (const auto &eng : dir.engines) {
                double secs = eng.busySeconds;
                if (eng.busy)
                    secs += des::toSeconds(now - eng.assignedAt);
                busy.push_back(secs);
            }
            return busy;
        };
        s.engineBusySecondsH2D = fold(h2dPool_);
        s.engineBusySecondsD2H = fold(d2hPool_);
    }
    s.copyBusySeconds = copyBusySeconds_;
    s.overlapSeconds = overlapSeconds_;
    // Fold the open copy-busy interval without mutating the integrals.
    const double odt = des::toSeconds(queue_.now() - overlapLast_);
    if (odt > 0.0 && activeCopies_ > 0) {
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
