/**
 * @file
 * Platform explorer: sweep future-accelerator design knobs and watch
 * what Rhythm does with them — the paper's closing direction ("design
 * data parallel processors specialized for server workloads").
 *
 * Sweeps SM count, memory bandwidth and PCIe generation on the Titan A
 * and Titan B configurations and prints workload throughput/efficiency
 * for a representative request type.
 *
 * Usage: platform_explorer [request-type-index]
 */

#include <cstdlib>
#include <iostream>

#include "platform/titan.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace {

using namespace rhythm;

platform::TypeRunResult
run(platform::TitanVariant variant, specweb::RequestType type)
{
    variant.server.laneSample = 128;
    platform::IsolatedRunOptions opts;
    opts.cohorts = 8;
    opts.users = 1000;
    return platform::runIsolatedType(variant, type, opts);
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t type_index =
        argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) % 14 : 1;
    const specweb::RequestType type =
        specweb::typeTable()[type_index].type;
    std::cout << "Exploring platform designs for request type '"
              << specweb::typeInfo(type).name << "'\n";

    {
        std::cout << "\n-- Scaling the SM array (Titan B) --\n";
        TableWriter t({"SMs", "KReqs/s", "device util",
                       "reqs/J dynamic"});
        for (int sms : {7, 14, 28, 56}) {
            platform::TitanVariant v = platform::titanB();
            v.device.numSms = sms;
            // Device power scales with the SM array in this sweep.
            v.power.devicePeakWatts = 225.0 * sms / 14.0;
            auto r = run(v, type);
            t.addRow({std::to_string(sms),
                      formatDouble(r.throughput / 1e3, 0),
                      formatDouble(r.deviceUtilization, 2),
                      formatDouble(r.reqsPerJouleDynamic, 0)});
        }
        t.printAscii(std::cout);
    }

    {
        std::cout << "\n-- Memory bandwidth (Titan B) --\n";
        TableWriter t({"GB/s", "KReqs/s", "device util"});
        for (double bw : {144.0, 288.0, 576.0, 1152.0}) {
            platform::TitanVariant v = platform::titanB();
            v.device.memBandwidthGBs = bw;
            auto r = run(v, type);
            t.addRow({formatDouble(bw, 0),
                      formatDouble(r.throughput / 1e3, 0),
                      formatDouble(r.deviceUtilization, 2)});
        }
        t.printAscii(std::cout);
    }

    {
        std::cout << "\n-- PCIe generation (Titan A; paper 6.1.1) --\n";
        TableWriter t({"PCIe GB/s", "KReqs/s", "copy util",
                       "KReqs/s bound"});
        for (double gbs : {6.0, 12.0, 24.0, 48.0}) {
            platform::TitanVariant v = platform::titanA();
            v.device.pcieBandwidthGBs = gbs;
            auto r = run(v, type);
            t.addRow({formatDouble(gbs, 0),
                      formatDouble(r.throughput / 1e3, 0),
                      formatDouble(r.copyUtilization, 2),
                      formatDouble(
                          platform::pcieThroughputBound(v, type) / 1e3,
                          0)});
        }
        t.printAscii(std::cout);
        std::cout << "Even PCIe 4.0 (24 GB/s) leaves the discrete-GPU "
                     "design link-bound for large\nresponses — the SoC "
                     "integration argument (paper Section 6.1.1).\n";
    }
    return 0;
}
