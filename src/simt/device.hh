/**
 * @file
 * The simulated accelerator device: streams, hardware work queues,
 * copy engines and a processor-sharing kernel execution engine.
 *
 * Semantics mirror the CUDA execution model the paper relies on:
 *
 *  - Commands within a stream execute in order.
 *  - Streams are mapped onto a fixed number of hardware work queues.
 *    With hardwareQueues == 1 (GTX690-style), commands from *all*
 *    streams serialize in enqueue order, creating the false dependencies
 *    the paper observed; with 32 queues (HyperQ, GTX Titan) independent
 *    streams proceed concurrently (Section 6.4).
 *  - Concurrent kernels share device throughput via processor sharing,
 *    with each kernel's share capped by its occupancy (a launch with few
 *    warps cannot fill the machine — hence Rhythm keeps several cohorts
 *    in flight, Section 4.2).
 *  - Host↔device copies run on a pool of DMA engines per direction
 *    (one by default) sharing a PCIe link model (bandwidth + latency),
 *    the Titan A bottleneck (Fig. 9; DESIGN.md Section 6h).
 */

#ifndef RHYTHM_SIMT_DEVICE_HH
#define RHYTHM_SIMT_DEVICE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "des/event_queue.hh"
#include "simt/engine.hh"
#include "simt/kernel.hh"

namespace rhythm::simt {

/**
 * Optional fault-injection hooks consulted by the device. Installed by
 * the fault subsystem (`fault::installDeviceFaults`); when a hook is
 * empty the corresponding site costs nothing. Hooks are consulted in
 * deterministic DES order, so a seeded fault plan reproduces exactly.
 */
struct DeviceFaultHooks
{
    /**
     * Consulted once per queued command immediately before it starts;
     * returns an extra stall (0 = none) during which the hardware
     * queue stays blocked (a wedged stream).
     */
    std::function<des::Time()> commandStall;
    /**
     * Consulted once per PCIe transfer; returns extra transfer time on
     * top of @p nominal (link-layer replay of a corrupted TLP, or
     * bandwidth degradation from retraining).
     */
    std::function<des::Time(bool to_device, uint64_t bytes,
                            des::Time nominal)>
        copyExtra;
    /**
     * Consulted once per link frame transmission when the CRC link
     * model is enabled (DeviceConfig::pcieCrcEnabled); true = the
     * frame arrives corrupted and is retransmitted. When the CRC model
     * is on, the injector routes Site::PcieCorrupt here instead of
     * through copyExtra, so a corruption decision is never consulted
     * twice for one transfer.
     */
    std::function<bool(bool to_device)> frameCorrupt;
};

/**
 * Discrete-event model of a SIMT accelerator.
 *
 * All methods must be called from the owning EventQueue's thread of
 * control (the library is single threaded by design).
 */
class Device
{
  public:
    using Callback = std::function<void()>;

    /** Creates a device attached to the given event queue. */
    Device(des::EventQueue &queue, DeviceConfig config);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /** Creates a new stream and returns its identifier. */
    int createStream();

    /** Enqueues a host→device copy of @p bytes on @p stream. */
    void copyToDevice(int stream, uint64_t bytes, Callback done);

    /** Enqueues a device→host copy of @p bytes on @p stream. */
    void copyToHost(int stream, uint64_t bytes, Callback done);

    /** Enqueues a kernel launch with the given resource demand. */
    void launchKernel(int stream, KernelCost cost, Callback done);

    /** Installs fault-injection hooks (replace with {} to disarm). */
    void setFaultHooks(DeviceFaultHooks hooks);

    /** The static configuration. */
    const DeviceConfig &config() const { return config_; }

    /**
     * The parallel warp-simulation engine, sized to this device's SM
     * count. Callers profile launches through it (instead of the serial
     * KernelProfile::fromTraces) to get host-side parallelism plus
     * per-SM deterministic accounting; results are byte-identical.
     */
    Engine &engine() { return engine_; }
    const Engine &engine() const { return engine_; }

    /** Aggregate utilization statistics. */
    struct Stats
    {
        uint64_t kernelsLaunched = 0;
        uint64_t copiesToDevice = 0;
        uint64_t copiesToHost = 0;
        uint64_t bytesToDevice = 0;
        uint64_t bytesToHost = 0;
        /** DRAM bytes moved by kernels (for power accounting). */
        uint64_t kernelMemoryBytes = 0;
        /** Integral of kernel-engine service rate over time (seconds). */
        double kernelBusySeconds = 0.0;
        /** Wall time with at least one transfer of that direction in
         *  flight, from engine assignment (DMA setup included) to
         *  completion. */
        double h2dBusySeconds = 0.0;
        double d2hBusySeconds = 0.0;
        /** CRC link model accounting (all 0 with pcieCrcEnabled off). */
        uint64_t pcieFrames = 0;
        uint64_t pcieWireBytes = 0;
        uint64_t pcieCrcErrors = 0;
        uint64_t pcieRetransmittedBytes = 0;
        uint64_t pcieRetrains = 0;
        // ---- Copy engines (DESIGN.md 6h) ---------------------------
        /** Wall time with at least one transfer in flight (either
         *  direction; includes the latency phase). */
        double copyBusySeconds = 0.0;
        /** Wall time with a transfer in flight AND a kernel running —
         *  transfer latency hidden under compute. */
        double overlapSeconds = 0.0;
        /** Chunks transmitted per direction (one per whole transfer
         *  when copyChunkBytes is 0). */
        uint64_t copyChunksH2D = 0;
        uint64_t copyChunksD2H = 0;
        /** Per-engine busy time, assignment → completion. */
        std::vector<double> engineBusySecondsH2D;
        std::vector<double> engineBusySecondsD2H;
    };

    /** Returns utilization statistics up to the current simulated time. */
    Stats stats() const;

    /** Kernel-engine utilization in [0,1] over the device's lifetime. */
    double kernelUtilization() const;

    /** True when no command is pending or executing anywhere. */
    bool idle() const;

  private:
    enum class CommandType { CopyH2D, CopyD2H, Kernel };

    struct Command
    {
        CommandType type;
        uint64_t bytes = 0;
        KernelCost cost;
        Callback done;
        /** The stall hook fires at most once per command. */
        bool stallChecked = false;
    };

    struct RunningKernel
    {
        double remaining = 0.0; //!< Device-seconds of demand left.
        double cap = 1.0;       //!< Occupancy cap on throughput share.
        double rate = 0.0;      //!< Current throughput share.
        int queueIndex = 0;     //!< Hardware queue to release on finish.
        des::Time admitted = 0; //!< Pool admission time (span start).
        KernelCost cost;        //!< Launch metadata for tracing.
    };

    struct PendingCopy
    {
        uint64_t bytes = 0;
        int queueIndex = 0;
    };

    /**
     * One DMA engine. An engine holds at most one transfer at a time;
     * chunks of concurrent transfers share the link round robin
     * (DESIGN.md 6h).
     */
    struct DmaEngine
    {
        bool busy = false;
        double busySeconds = 0.0;      //!< Assignment → completion.
        des::Time assignedAt = 0;      //!< For busySeconds + spans.
        uint64_t bytesLeft = 0;        //!< Payload not yet on the wire.
        uint64_t totalBytes = 0;       //!< Whole transfer (for tracing).
        des::Time extra = 0;           //!< copyExtra fault, paid on the
                                       //!< final chunk.
        int queueIndex = 0;            //!< HW queue to release on finish.
    };

    /** Per-direction copy state: engine pool, queues and link. */
    struct CopyDirection
    {
        bool toDevice = false;
        std::vector<DmaEngine> engines;
        /** Transfers waiting for a free engine (FIFO). */
        std::deque<PendingCopy> waiting;
        /** Engines with bytes ready for the link, in service order. */
        std::deque<int> ready;
        bool linkBusy = false;
        /** Transfers assigned to an engine and not yet complete. */
        int inFlight = 0;
        /** Start of the open busy interval (inFlight > 0). */
        des::Time busySince = 0;
        /** Closed busy intervals (Stats::h2dBusySeconds). */
        double busySeconds = 0.0;
    };

    void enqueue(int stream, Command cmd);
    void startCommand(int queue_index);
    void commandFinished(int queue_index);

    void assignEngine(CopyDirection &dir, PendingCopy copy);
    void engineReady(CopyDirection &dir, int engine_index);
    void startNextChunk(CopyDirection &dir);
    void chunkDone(CopyDirection &dir, int engine_index, uint64_t chunk);
    /** Accrues copy-busy / copy-kernel-overlap wall time up to now. */
    void accrueCopyOverlap();

    void kernelAdmitted(KernelCost cost, int queue_index);
    void advancePool();
    void recomputeRates();
    void reschedulePoolEvent();
    void poolEventFired();

    des::EventQueue &queue_;
    DeviceConfig config_;
    DeviceFaultHooks faultHooks_;
    des::Time createTime_;

    int nextStream_ = 0;
    std::vector<std::deque<Command>> hwQueues_;

    CopyDirection h2dPool_;
    CopyDirection d2hPool_;
    des::Time overlapLast_ = 0;
    double overlapSeconds_ = 0.0;
    double copyBusySeconds_ = 0.0;

    std::vector<RunningKernel> pool_;
    des::Time poolLastUpdate_ = 0;
    bool poolEventValid_ = false;
    des::EventId poolEvent_;
    uint64_t pendingCommands_ = 0;

    Stats stats_;
    Engine engine_;
};

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_DEVICE_HH
