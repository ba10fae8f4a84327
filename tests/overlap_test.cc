/**
 * @file
 * Copy-engine scheduling corners of the copy model (DESIGN.md
 * Section 6h).
 *
 * Device level: the default configuration (one engine, whole
 * transfers) against the serial closed form, chunk boundaries landing
 * exactly on transfer edges, engine starvation with fewer engines than
 * transfers, per-transfer setup latency hiding across engines,
 * round-robin link arbitration, CRC retransmits inside a chunked
 * transfer, and the busy/overlap accounting behind fig9's
 * overlap_fraction. Server level: the pipelined (double-buffered)
 * server must produce the same completed requests and response bytes
 * as the serial pipeline under any thread count, with watchdog hedges
 * firing while downloads are in flight, and under CRC-detected link
 * corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "des/event_queue.hh"
#include "fault/plan.hh"
#include "platform/titan.hh"
#include "simt/device.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace rhythm::simt {
namespace {

constexpr uint64_t kMiB = 1048576;

DeviceConfig
pooledConfig(int engines, uint32_t chunk)
{
    DeviceConfig cfg;
    cfg.launchOverhead = 0;
    cfg.pcieLatency = 0;
    cfg.pcieBandwidthGBs = 1.0; // 1 byte per ns: easy arithmetic
    cfg.copyEngines = engines;
    cfg.copyChunkBytes = chunk;
    return cfg;
}

KernelCost
kernelOf(double seconds)
{
    KernelCost c;
    c.deviceSeconds = seconds;
    c.maxShare = 1.0;
    return c;
}

TEST(OverlapDevice, PooledWholeTransferMatchesLegacyTiming)
{
    // Multiple engines but no chunking: a lone transfer costs exactly
    // the serial latency + bytes/bandwidth and ships as one chunk.
    des::EventQueue eq;
    Device dev(eq, pooledConfig(4, 0));
    int s = dev.createStream();
    bool done = false;
    dev.copyToDevice(s, 1000000, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(des::toSeconds(eq.now()), 1e-3, 1e-9);
    EXPECT_EQ(dev.stats().copyChunksH2D, 1u);
    EXPECT_EQ(dev.stats().copiesToDevice, 1u);
}

TEST(OverlapDevice, ChunkCountExactAtSlotBoundary)
{
    // A transfer that is an exact multiple of the chunk size must ship
    // exactly bytes/chunk chunks — no trailing zero-byte chunk.
    {
        des::EventQueue eq;
        Device dev(eq, pooledConfig(1, 262144));
        dev.copyToDevice(dev.createStream(), 4 * 262144, nullptr);
        eq.run();
        EXPECT_EQ(dev.stats().copyChunksH2D, 4u);
        EXPECT_NEAR(des::toSeconds(eq.now()), 4 * 262144e-9, 1e-9);
    }
    // Exactly one chunk when bytes == chunk...
    {
        des::EventQueue eq;
        Device dev(eq, pooledConfig(1, 262144));
        dev.copyToDevice(dev.createStream(), 262144, nullptr);
        eq.run();
        EXPECT_EQ(dev.stats().copyChunksH2D, 1u);
    }
    // ...and one byte past the boundary rounds up to two.
    {
        des::EventQueue eq;
        Device dev(eq, pooledConfig(1, 262144));
        dev.copyToDevice(dev.createStream(), 262145, nullptr);
        eq.run();
        EXPECT_EQ(dev.stats().copyChunksH2D, 2u);
    }
}

TEST(OverlapDevice, ChunkingPreservesTotalWireTime)
{
    // The chunk size changes how concurrent transfers share the wire,
    // never how long one transfer's bytes occupy it.
    double whole = 0, chunked = 0;
    {
        des::EventQueue eq;
        Device dev(eq, pooledConfig(2, 0));
        dev.copyToDevice(dev.createStream(), 1000000, nullptr);
        eq.run();
        whole = des::toSeconds(eq.now());
    }
    {
        des::EventQueue eq;
        Device dev(eq, pooledConfig(2, 4096));
        dev.copyToDevice(dev.createStream(), 1000000, nullptr);
        eq.run();
        chunked = des::toSeconds(eq.now());
    }
    EXPECT_NEAR(whole, 1e-3, 1e-9);
    EXPECT_NEAR(chunked, whole, 1e-9);
}

TEST(OverlapDevice, SingleEngineStarvationSerializes)
{
    // One engine, two transfers: the second starves until the first
    // completes, so both its setup latency and its wire time land
    // strictly after the first transfer — 2 × (latency + wire).
    des::EventQueue eq;
    DeviceConfig cfg = pooledConfig(1, 65536);
    cfg.pcieLatency = 10 * des::kMicrosecond;
    Device dev(eq, cfg);
    int s1 = dev.createStream();
    int s2 = dev.createStream();
    std::vector<int> order;
    dev.copyToDevice(s1, kMiB, [&] { order.push_back(1); });
    dev.copyToDevice(s2, kMiB, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_NEAR(des::toSeconds(eq.now()), 2 * (1e-5 + kMiB * 1e-9), 1e-9);
    // The lone engine was busy for both assignment→completion spans.
    const Device::Stats s = dev.stats();
    ASSERT_EQ(s.engineBusySecondsH2D.size(), 1u);
    EXPECT_NEAR(s.engineBusySecondsH2D[0], 2 * (1e-5 + kMiB * 1e-9), 1e-9);
}

TEST(OverlapDevice, MultiEngineHidesSetupLatency)
{
    // Two engines: both transfers pay their per-transfer latency
    // concurrently, then share the serial wire — one latency total
    // instead of two.
    des::EventQueue eq;
    DeviceConfig cfg = pooledConfig(2, 65536);
    cfg.pcieLatency = 10 * des::kMicrosecond;
    Device dev(eq, cfg);
    dev.copyToDevice(dev.createStream(), kMiB, nullptr);
    dev.copyToDevice(dev.createStream(), kMiB, nullptr);
    eq.run();
    EXPECT_NEAR(des::toSeconds(eq.now()), 1e-5 + 2 * kMiB * 1e-9, 1e-9);
}

TEST(OverlapDevice, RoundRobinInterleavesConcurrentTransfers)
{
    // Two 2-chunk transfers on two engines alternate chunks on the
    // wire: A1 B1 A2 B2 — so A completes after 3 chunk times and B
    // after 4, and neither transfer monopolizes the link.
    des::EventQueue eq;
    Device dev(eq, pooledConfig(2, 524288));
    const double c = 524288e-9;
    double done_a = 0, done_b = 0;
    dev.copyToDevice(dev.createStream(), kMiB,
                     [&] { done_a = des::toSeconds(eq.now()); });
    dev.copyToDevice(dev.createStream(), kMiB,
                     [&] { done_b = des::toSeconds(eq.now()); });
    eq.run();
    EXPECT_NEAR(done_a, 3 * c, 1e-9);
    EXPECT_NEAR(done_b, 4 * c, 1e-9);
    const Device::Stats s = dev.stats();
    EXPECT_EQ(s.copyChunksH2D, 4u);
    // Engine busy spans assignment → completion; the link was occupied
    // back to back for all four chunks.
    ASSERT_EQ(s.engineBusySecondsH2D.size(), 2u);
    EXPECT_NEAR(s.engineBusySecondsH2D[0], 3 * c, 1e-9);
    EXPECT_NEAR(s.engineBusySecondsH2D[1], 4 * c, 1e-9);
    // The direction had a transfer in flight for all four chunk times.
    EXPECT_NEAR(s.h2dBusySeconds, 4 * c, 1e-9);
    EXPECT_NEAR(s.copyBusySeconds, 4 * c, 1e-9);
    // No kernels ran, so nothing was hidden under compute.
    EXPECT_NEAR(s.overlapSeconds, 0.0, 1e-12);
}

TEST(OverlapDevice, EngineStarvationBacklogDrains)
{
    // More transfers than engines: the excess wait in FIFO order and
    // are assigned as engines free up; every transfer completes.
    des::EventQueue eq;
    Device dev(eq, pooledConfig(2, 262144));
    int completions = 0;
    for (int i = 0; i < 5; ++i)
        dev.copyToDevice(dev.createStream(), 262144,
                         [&] { ++completions; });
    eq.run();
    EXPECT_EQ(completions, 5);
    EXPECT_EQ(dev.stats().copiesToDevice, 5u);
    EXPECT_EQ(dev.stats().copyChunksH2D, 5u);
    EXPECT_NEAR(des::toSeconds(eq.now()), 5 * 262144e-9, 1e-9);
    EXPECT_TRUE(dev.idle());
}

TEST(OverlapDevice, OppositeDirectionsOverlapOnPooledPath)
{
    // H2D and D2H have independent engine pools and wires: a download
    // in flight never delays an upload (and vice versa).
    des::EventQueue eq;
    Device dev(eq, pooledConfig(2, 262144));
    dev.copyToDevice(dev.createStream(), kMiB, nullptr);
    dev.copyToHost(dev.createStream(), kMiB, nullptr);
    eq.run();
    EXPECT_NEAR(des::toSeconds(eq.now()), kMiB * 1e-9, 1e-9);
    EXPECT_EQ(dev.stats().copyChunksH2D, 4u);
    EXPECT_EQ(dev.stats().copyChunksD2H, 4u);
}

TEST(OverlapDevice, CrcRetransmitMidOverlappedTransfer)
{
    // Frame CRC on the chunked path, with a kernel running throughout:
    // one corrupted frame deep inside the transfer is retransmitted,
    // the transfer still completes as one unit, the wire/retransmit
    // accounting is exact, and the whole copy is hidden under compute.
    des::EventQueue eq;
    DeviceConfig cfg = pooledConfig(2, 65536);
    cfg.pcieCrcEnabled = true; // frame 4096 B + 8 B overhead defaults
    Device dev(eq, cfg);
    uint64_t frame_calls = 0;
    DeviceFaultHooks hooks;
    hooks.frameCorrupt = [&](bool /*to_device*/) {
        return ++frame_calls == 100; // corrupt exactly one transmission
    };
    dev.setFaultHooks(hooks);
    int sk = dev.createStream();
    int sc = dev.createStream();
    dev.launchKernel(sk, kernelOf(2e-3), nullptr);
    double copy_done = 0;
    dev.copyToDevice(sc, kMiB, [&] { copy_done = des::toSeconds(eq.now()); });
    eq.run();

    const Device::Stats s = dev.stats();
    EXPECT_EQ(s.copyChunksH2D, 16u); // 1 MiB / 64 KiB chunks
    EXPECT_EQ(s.pcieCrcErrors, 1u);
    EXPECT_EQ(s.pcieRetrains, 0u);
    EXPECT_EQ(s.pcieRetransmittedBytes, 4096u + 8u);
    // 256 frames of payload+overhead, plus the one replayed frame.
    EXPECT_EQ(s.pcieWireBytes, kMiB + 256 * 8 + 4104);
    const double copy_seconds = static_cast<double>(s.pcieWireBytes) * 1e-9;
    EXPECT_NEAR(copy_done, copy_seconds, 1e-9);
    // The copy (retransmit included) ran entirely under the kernel.
    EXPECT_NEAR(s.copyBusySeconds, copy_seconds, 1e-9);
    EXPECT_NEAR(s.overlapSeconds, copy_seconds, 1e-9);
    EXPECT_NEAR(des::toSeconds(eq.now()), 2e-3, 1e-6);
}

TEST(OverlapDevice, BusyTimeCountsDmaSetup)
{
    // A direction is busy while any of its transfers is in flight,
    // from engine assignment on: two engines set up concurrently for
    // one latency, then the two transfers share the wire back to back.
    des::EventQueue eq;
    DeviceConfig cfg = pooledConfig(2, 0);
    cfg.pcieLatency = 10 * des::kMicrosecond;
    Device dev(eq, cfg);
    dev.copyToDevice(dev.createStream(), kMiB, nullptr);
    dev.copyToDevice(dev.createStream(), kMiB, nullptr);
    eq.run();
    EXPECT_NEAR(dev.stats().h2dBusySeconds, 1e-5 + 2 * kMiB * 1e-9, 1e-12);
    EXPECT_EQ(dev.stats().d2hBusySeconds, 0.0);
}

/** One copy of the serial-model property test, as issued and seen. */
struct SerialCopy
{
    int stream = 0;
    bool toDevice = false;
    uint64_t bytes = 0;
    des::Time enqueued = 0;
    des::Time extra = 0;   //!< What the copyExtra hook returns.
    int hookCalls = 0;
    des::Time started = 0; //!< When the hook was consulted.
    des::Time done = -1;
};

class SerialCopiesMatchClosedForm : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SerialCopiesMatchClosedForm, CompletionAndBusyTime)
{
    // The default copy configuration (one engine per direction, whole
    // transfers) is the serial model: a transfer starts once its
    // command heads its hardware queue and the previous transfer of
    // its direction is done, and completes latency + wire + extra
    // later. Random sizes, directions, streams, enqueue times and
    // fault extras; with 1 hardware queue every command serializes,
    // with 32 each stream has its own.
    for (const int queues : {1, 32}) {
        SCOPED_TRACE(queues);
        Rng rng(GetParam() * 64 + static_cast<uint64_t>(queues));
        DeviceConfig cfg;
        cfg.hardwareQueues = queues;
        cfg.pcieLatency = 8 * des::kMicrosecond;
        ASSERT_EQ(cfg.copyEngines, 1);
        ASSERT_EQ(cfg.copyChunkBytes, 0u);
        des::EventQueue eq;
        Device dev(eq, cfg);
        const int streams = static_cast<int>(rng.nextRange(2, 8));
        for (int s = 0; s < streams; ++s)
            dev.createStream();

        // Distinct sizes let the copyExtra hook tell the copies apart.
        std::vector<SerialCopy> copies(rng.nextRange(10, 60));
        std::set<uint64_t> sizes;
        for (size_t i = 0; i < copies.size(); ++i) {
            SerialCopy &c = copies[i];
            c.stream = static_cast<int>(rng.nextBounded(streams));
            c.toDevice = rng.nextBool(0.5);
            do {
                c.bytes = static_cast<uint64_t>(rng.nextRange(1, 2 * kMiB));
            } while (!sizes.insert(c.bytes).second);
            c.enqueued = rng.nextRange(0, 4) * 500 * des::kMicrosecond;
            if (rng.nextBool(0.3))
                c.extra = rng.nextRange(1, 50) * des::kMicrosecond;
        }
        auto wire = [&cfg](uint64_t bytes) {
            return des::fromSeconds(static_cast<double>(bytes) /
                                    (cfg.pcieBandwidthGBs * 1e9));
        };
        DeviceFaultHooks hooks;
        hooks.copyExtra = [&](bool to_device, uint64_t bytes,
                              des::Time nominal) {
            auto it = std::find_if(copies.begin(), copies.end(),
                                   [bytes](const SerialCopy &c) {
                                       return c.bytes == bytes;
                                   });
            EXPECT_NE(it, copies.end());
            if (it == copies.end())
                return des::Time{0};
            EXPECT_EQ(it->toDevice, to_device);
            EXPECT_EQ(nominal, cfg.pcieLatency + wire(bytes));
            ++it->hookCalls;
            it->started = eq.now();
            return it->extra;
        };
        dev.setFaultHooks(hooks);
        // Enqueue in index order: copies enqueued at the same instant
        // reach the device in index order.
        for (size_t i = 0; i < copies.size(); ++i) {
            eq.scheduleAt(copies[i].enqueued, [&, i]() {
                SerialCopy &c = copies[i];
                auto done = [&eq, &c]() { c.done = eq.now(); };
                if (c.toDevice)
                    dev.copyToDevice(c.stream, c.bytes, done);
                else
                    dev.copyToHost(c.stream, c.bytes, done);
            });
        }
        eq.run();
        ASSERT_TRUE(dev.idle());

        // Command start: the later of its enqueue and the completion of
        // the command ahead of it in its hardware queue.
        std::vector<size_t> by_enqueue(copies.size());
        for (size_t i = 0; i < copies.size(); ++i)
            by_enqueue[i] = i;
        std::stable_sort(by_enqueue.begin(), by_enqueue.end(),
                         [&](size_t a, size_t b) {
                             return copies[a].enqueued < copies[b].enqueued;
                         });
        std::vector<des::Time> command_start(copies.size());
        std::vector<des::Time> queue_free(static_cast<size_t>(queues), 0);
        for (size_t i : by_enqueue) {
            des::Time &free = queue_free[static_cast<size_t>(
                copies[i].stream % queues)];
            command_start[i] = std::max(copies[i].enqueued, free);
            free = copies[i].done;
        }

        for (const bool to_device : {true, false}) {
            std::vector<size_t> served;
            for (size_t i = 0; i < copies.size(); ++i)
                if (copies[i].toDevice == to_device)
                    served.push_back(i);
            std::sort(served.begin(), served.end(), [&](size_t a, size_t b) {
                return copies[a].started < copies[b].started;
            });
            des::Time previous_done = 0;
            double busy = 0.0;
            for (size_t k = 0; k < served.size(); ++k) {
                const SerialCopy &c = copies[served[k]];
                EXPECT_EQ(c.hookCalls, 1);
                // Waiting transfers are served in command-start order.
                if (k > 0) {
                    EXPECT_LE(command_start[served[k - 1]],
                              command_start[served[k]]);
                }
                EXPECT_EQ(c.started,
                          std::max(command_start[served[k]], previous_done));
                const des::Time duration =
                    cfg.pcieLatency + wire(c.bytes) + c.extra;
                EXPECT_EQ(c.done, c.started + duration);
                previous_done = c.done;
                busy += des::toSeconds(duration);
            }
            const Device::Stats s = dev.stats();
            EXPECT_EQ(to_device ? s.h2dBusySeconds : s.d2hBusySeconds, busy);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SerialCopiesMatchClosedForm,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
} // namespace rhythm::simt

namespace rhythm {
namespace {

/** A Titan A variant plus the options of one small isolated run. */
struct SmallRun
{
    platform::TitanVariant variant = platform::titanA();
    platform::IsolatedRunOptions opts;
};

/** One small isolated banking run; restores serial mode afterwards. */
platform::TypeRunResult
runType(specweb::RequestType type, const SmallRun &run, unsigned threads)
{
    util::setSimThreads(threads);
    platform::TypeRunResult r =
        platform::runIsolatedType(run.variant, type, run.opts);
    util::setSimThreads(1);
    return r;
}

SmallRun
smallRun()
{
    SmallRun run;
    run.opts.cohorts = 4;
    run.opts.users = 400;
    run.variant.server.laneSample = 64;
    return run;
}

SmallRun
overlapped(SmallRun run)
{
    run.variant.server.overlapPipeline = true;
    run.variant.device.copyEngines = 4;
    run.variant.device.copyChunkBytes = 262144;
    return run;
}

TEST(OverlapServer, ResponsesIdenticalAcrossModesAndThreads)
{
    // The double-buffered pipeline reorders simulation work, never
    // results: completed requests and client-visible response bytes
    // must match the serial pipeline at any thread count.
    for (specweb::RequestType type :
         {specweb::RequestType::PostPayee, specweb::RequestType::Logout}) {
        const platform::TypeRunResult off = runType(type, smallRun(), 1);
        ASSERT_GT(off.requests, 0u);
        for (unsigned threads : {1u, 8u}) {
            const platform::TypeRunResult off_t =
                runType(type, smallRun(), threads);
            const platform::TypeRunResult on_t =
                runType(type, overlapped(smallRun()), threads);
            EXPECT_EQ(off_t.requests, off.requests);
            EXPECT_EQ(on_t.requests, off.requests);
            EXPECT_EQ(off_t.responseBytesPerRequest,
                      off.responseBytesPerRequest);
            EXPECT_EQ(on_t.responseBytesPerRequest,
                      off.responseBytesPerRequest);
            // Determinism within a mode: the threaded run reproduces
            // the serial run bit for bit.
            EXPECT_EQ(off_t.elapsedSeconds, off.elapsedSeconds);
        }
    }
}

TEST(OverlapServer, HedgeDuringOverlappedDownloadsKeepsResponses)
{
    // Kernel hangs with a tight watchdog: hedged cohorts re-execute
    // while chunked downloads of neighbouring cohorts are in flight.
    // Exactly-once delivery must hold — same requests, same response
    // bytes as the fault-free serial run — with only timing changed.
    SmallRun faulty = smallRun();
    faulty.opts.faults.at(fault::Site::KernelHang).probability = 0.5;
    faulty.opts.faults.at(fault::Site::KernelHang).meanDelay =
        des::fromSeconds(5e-3);
    faulty.variant.server.watchdogTimeout = des::fromSeconds(2e-3);
    faulty.opts.recovery = true;

    const specweb::RequestType type = specweb::RequestType::PostPayee;
    const platform::TypeRunResult healthy = runType(type, smallRun(), 1);
    const platform::TypeRunResult off = runType(type, faulty, 1);
    const platform::TypeRunResult on = runType(type, overlapped(faulty), 1);
    const platform::TypeRunResult on8 = runType(type, overlapped(faulty), 8);

    EXPECT_EQ(off.requests, healthy.requests);
    EXPECT_EQ(on.requests, healthy.requests);
    EXPECT_EQ(off.responseBytesPerRequest, healthy.responseBytesPerRequest);
    EXPECT_EQ(on.responseBytesPerRequest, healthy.responseBytesPerRequest);
    // The faults actually fired: hangs + hedges cost simulated time.
    EXPECT_NE(on.elapsedSeconds, healthy.elapsedSeconds);
    // And the faulted overlapped run is itself thread-invariant.
    EXPECT_EQ(on8.elapsedSeconds, on.elapsedSeconds);
    EXPECT_EQ(on8.requests, on.requests);
}

TEST(OverlapServer, CrcCorruptionUnderOverlapKeepsResponses)
{
    // Frame CRC with injected corruption on the chunked path: every
    // corrupted frame is retransmitted, so responses never change —
    // only wire bytes and timing do.
    SmallRun faulty = smallRun();
    faulty.variant.device.pcieCrcEnabled = true;
    faulty.opts.faults.at(fault::Site::PcieCorrupt).probability = 0.05;

    const specweb::RequestType type = specweb::RequestType::PostPayee;
    const platform::TypeRunResult healthy = runType(type, smallRun(), 1);
    const platform::TypeRunResult off = runType(type, faulty, 1);
    const platform::TypeRunResult on = runType(type, overlapped(faulty), 1);

    EXPECT_EQ(off.requests, healthy.requests);
    EXPECT_EQ(on.requests, healthy.requests);
    EXPECT_EQ(off.responseBytesPerRequest, healthy.responseBytesPerRequest);
    EXPECT_EQ(on.responseBytesPerRequest, healthy.responseBytesPerRequest);
    // CRC framing put more bytes on the wire than the payload needs.
    EXPECT_GT(on.pcieWireBytesPerRequest, 0u);
    EXPECT_GE(on.pcieWireBytesPerRequest, on.pcieBytesPerRequest);
}

} // namespace
} // namespace rhythm
