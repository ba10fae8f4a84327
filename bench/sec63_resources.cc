/**
 * @file
 * Section 6.3: system resource requirements — network bandwidth needed
 * to sustain each Titan platform's throughput (paper: 67 / 258 / 517
 * Gbps raw for A/B/C, ~100 Gbps with 80% HTML compression for Titan C)
 * and device memory capacity (16M sessions = 640 MB, 64M-slot array =
 * 2.5 GB, pools linear in cohort size, 8 cohorts of 4096 on a 6 GB
 * Titan).
 */

#include <iostream>

#include "backend/protocol.hh"
#include "bench/common.hh"
#include "platform/measure.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/session_array.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("sec63_resources", flags);
    bench::banner("Section 6.3: system resource requirements",
                  "Section 6.3 (network bandwidth, memory capacity)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(60, 2000, 7);

    // Per-request network bytes: request + response content + backend
    // round trips (remote backend traffic is network traffic for the
    // front-end node). Matches the paper's arithmetic: ~21 KB/request.
    double backend_stages = 0.0, mix = 0.0;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        backend_stages += specweb::typeTable()[i].mixPercent *
                          specweb::typeTable()[i].backendRequests;
        mix += specweb::typeTable()[i].mixPercent;
    }
    backend_stages /= mix;
    const double request_bytes = 512.0;
    const double per_request_bytes =
        request_bytes + wm.mixWeightedResponseBytes +
        backend_stages *
            (backend::kRequestSlotBytes + backend::kResponseSlotBytes);

    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    TableWriter net({"platform", "KReqs/s", "network Gbps (paper)",
                     "with 80% HTML compression Gbps"});
    const double paper_gbps[3] = {67, 258, 517};
    int row = 0;
    for (platform::TitanVariant variant :
         {platform::titanA(), platform::titanB(), platform::titanC()}) {
        variant.server.laneSample = 128;
        faults.apply(variant);
        overlap.apply(variant);
        platform::TitanWorkloadResult r =
            platform::evaluateTitan(variant, opts);
        const double gbps =
            r.throughput * per_request_bytes * 8.0 / 1e9;
        // Compression applies to the HTML response bytes only.
        const double compressed_gbps =
            r.throughput *
            (per_request_bytes - 0.8 * wm.mixWeightedResponseBytes) *
            8.0 / 1e9;
        net.addRow({r.name, bench::fmt(r.throughput / 1e3, 0),
                    bench::withRef(gbps, paper_gbps[row], 0),
                    bench::fmt(compressed_gbps, 0)});
        report.metric(bench::slug(r.name) + ".network_gbps", gbps);
        report.metric(bench::slug(r.name) + ".throughput", r.throughput);
        ++row;
    }
    net.printAscii(std::cout);
    std::cout << "Per-request network bytes (measured): "
              << bench::fmt(per_request_bytes / 1024.0, 1)
              << " KB (paper arithmetic: ~21 KB).\n";

    // ---- Memory capacity ---------------------------------------------
    TableWriter mem({"structure", "configuration", "bytes",
                     "paper reference"});
    core::SessionArray live(4096, 4096); // 16M nodes
    mem.addRow({"session array (16M live sessions)", "16M x 40 B",
                humanBytes(static_cast<double>(live.footprintBytes())),
                "640 MB"});
    core::SessionArray sized(4096, 16384); // 64M nodes
    mem.addRow({"session array (64M slots, 25% collision)",
                "64M x 40 B",
                humanBytes(static_cast<double>(sized.footprintBytes())),
                "2.5 GB"});

    des::EventQueue queue;
    simt::Device device(queue, simt::DeviceConfig{});
    backend::BankDb db(10, 1);
    platform::TitanVariant b = platform::titanB();
    core::BankingService service(db);
    core::RhythmServer server(queue, device, service, b.server);
    mem.addRow({"preallocated pipeline pools",
                std::to_string(b.server.cohortContexts) + " cohorts x " +
                    std::to_string(b.server.cohortSize) + " reqs",
                humanBytes(static_cast<double>(
                    server.memoryFootprintBytes() -
                    server.sessions().footprintBytes())),
                "fits 6 GB GTX Titan with 8 cohorts in flight"});
    mem.printAscii(std::cout);

    const double total =
        static_cast<double>(sized.footprintBytes()) +
        static_cast<double>(server.memoryFootprintBytes() -
                            server.sessions().footprintBytes());
    std::cout << "Total (64M-slot sessions + pools): "
              << humanBytes(total) << " of "
              << humanBytes(6.0 * (1ull << 30))
              << " device memory (paper: limited to 8 inflight cohorts "
                 "of 4096).\n";
    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    report.metric("per_request_network_bytes", per_request_bytes);
    report.metric("total_device_memory_bytes", total);
    if (!report.write())
        return 1;
    return 0;
}
