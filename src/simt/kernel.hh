/**
 * @file
 * Kernel-level profiles and the device cost model.
 *
 * A KernelProfile aggregates warp statistics for one kernel launch (one
 * pipeline stage executed over one cohort). The cost model converts a
 * profile into a resource demand on the simulated device using a roofline:
 * compute time from issue slots, memory time from coalesced transactions,
 * whichever binds.
 */

#ifndef RHYTHM_SIMT_KERNEL_HH
#define RHYTHM_SIMT_KERNEL_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "des/time.hh"
#include "simt/warp.hh"

namespace rhythm::simt {

/** Static configuration of the simulated accelerator. */
struct DeviceConfig
{
    std::string name = "GTX Titan (simulated)";
    /** Streaming multiprocessors. */
    int numSms = 14;
    /** Core clock in GHz. */
    double clockGhz = 0.837;
    /** SIMT width. */
    int warpWidth = 32;
    /** CUDA cores per SM (Kepler SMX: 192). */
    int coresPerSm = 192;
    /** Peak DRAM bandwidth, GB/s (GTX Titan: 288). */
    double memBandwidthGBs = 288.0;
    /**
     * Achievable fraction of peak DRAM bandwidth for kernel traffic
     * (streaming/transpose access patterns sustain well below peak on
     * real GDDR5; calibration, see DESIGN.md Section 5).
     */
    double memoryEfficiency = 0.6;
    /** Hardware work queues: 32 = HyperQ Titan, 1 = GTX690-style. */
    int hardwareQueues = 32;
    /** Fixed host-side kernel launch overhead. */
    des::Time launchOverhead = 5 * des::kMicrosecond;
    /** Resident warps per SM needed to saturate its throughput. */
    int saturatingWarpsPerSm = 8;
    /**
     * SIMT instructions issued per traced x86-equivalent instruction
     * (calibration): the RISC expansion of CISC-equivalent work plus
     * scheduler issue inefficiency. Fitted against the paper's Titan B
     * throughput; see DESIGN.md Section 5.
     */
    double instructionExpansion = 1.6;
    /** PCIe usable bandwidth per direction, GB/s (3.0 x16 ≈ 12). */
    double pcieBandwidthGBs = 12.0;
    /** PCIe per-transfer latency. */
    des::Time pcieLatency = 8 * des::kMicrosecond;
    /**
     * Frame-level CRC + bounded retransmit on the PCIe link model
     * (simt/pcie.hh). Off by default: an injected corruption is then
     * one whole-transfer link-layer replay (DeviceFaultHooks::
     * copyExtra).
     */
    bool pcieCrcEnabled = false;
    /** Link frame payload bytes — the CRC/retransmit granularity. */
    uint32_t pcieFrameBytes = 4096;
    /** CRC + sequence overhead bytes carried per frame on the wire. */
    uint32_t pcieFrameOverheadBytes = 8;
    /** Retransmit attempts per frame before the link retrains. */
    uint32_t pcieMaxRetransmits = 4;
    /** Retrain penalty once a frame exhausts its retransmit budget. */
    des::Time pcieRetrainTime = 50 * des::kMicrosecond;
    /**
     * Modeled DMA copy engines per direction (DESIGN.md Section 6h).
     * Each transfer's per-transfer latency phase runs on its own
     * engine concurrently with other transfers, while the shared link
     * wire transmits one chunk at a time at full bandwidth, round-robin
     * over the engines with data ready. 1 (the default) with whole
     * transfers is the serial model: one transfer per direction at a
     * time, latency + bytes/bandwidth each.
     */
    int copyEngines = 1;
    /**
     * Chunk granularity of overlapped transfers in bytes (0 = whole
     * transfer). Smaller chunks interleave concurrent transfers more
     * finely on the wire; the chunk size never changes total wire time,
     * only how transfers share it.
     */
    uint32_t copyChunkBytes = 0;
    /** Device DRAM capacity in bytes (GTX Titan: 6 GiB). */
    uint64_t memoryBytes = 6ull << 30;

    /** Warp-instruction issue slots per cycle per SM. */
    double issueSlotsPerCyclePerSm() const
    {
        return static_cast<double>(coresPerSm) / warpWidth;
    }

    /** Device-wide issue slots per second. */
    double issueSlotsPerSecond() const
    {
        return issueSlotsPerCyclePerSm() * numSms * clockGhz * 1e9;
    }

    /** Warps needed in flight to saturate the whole device. */
    int saturatingWarps() const { return numSms * saturatingWarpsPerSm; }
};

/** Aggregated execution profile of one kernel launch. */
struct KernelProfile
{
    std::string name;
    uint64_t threads = 0;
    uint64_t warps = 0;
    WarpStats totals;

    /**
     * Builds a profile by lockstep-simulating a grid of thread traces,
     * packing consecutive threads into warps (the Rhythm parser sorts
     * requests so that same-type requests are warp-contiguous).
     */
    static KernelProfile fromTraces(
        const std::vector<const ThreadTrace *> &traces,
        const WarpModel &model, std::string name = "");

    /**
     * Builds a profile by merging pre-simulated per-warp statistics in
     * index order. fromTraces() and the parallel simt::Engine both
     * funnel through this, so their aggregates are identical by
     * construction regardless of which thread simulated which warp.
     */
    static KernelProfile fromWarpStats(std::span<const WarpStats> warp_stats,
                                       uint64_t threads,
                                       std::string name = "");

    /**
     * Builds an analytic profile for a streaming, memory-bound kernel
     * such as the buffer transpose: @p bytes_moved DRAM traffic with
     * perfect coalescing and @p insts_per_thread lane instructions.
     */
    static KernelProfile streaming(uint64_t threads, uint64_t bytes_moved,
                                   uint32_t insts_per_thread,
                                   const WarpModel &model,
                                   std::string name = "");

    /** SIMD efficiency across the whole launch. */
    double simdEfficiency(int warp_width) const
    {
        return totals.simdEfficiency(warp_width);
    }
};

/** Resource demand of one kernel launch on the device. */
struct KernelCost
{
    /**
     * Execution time if the kernel had the whole device to itself with
     * saturating occupancy (seconds).
     */
    double deviceSeconds = 0.0;
    /**
     * Maximum fraction of device throughput this launch can use, capped
     * by its warp count (small cohorts cannot fill the machine; the
     * pipeline overlaps multiple cohorts to compensate — Section 4.2).
     */
    double maxShare = 1.0;
    /** True if the roofline was memory-bound. */
    bool memoryBound = false;
    /** DRAM bytes this launch moves (for device power accounting). */
    uint64_t memoryBytes = 0;

    // ---- Observability metadata (carried through to the device so
    // ---- kernel-launch spans can report what executed; not consumed
    // ---- by the cost model itself) -------------------------------
    /** Kernel name from the profile. */
    std::string name;
    /** Warps in the launch (occupancy numerator). */
    uint64_t warps = 0;
    /** SIMD efficiency of the profiled launch. */
    double simdEfficiency = 0.0;
    /** Coalesced global-memory transactions of the launch. */
    uint64_t globalTransactions = 0;
};

/** Converts a kernel profile into its demand under a device config. */
KernelCost computeKernelCost(const KernelProfile &profile,
                             const DeviceConfig &config);

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_KERNEL_HH
