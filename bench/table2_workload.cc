/**
 * @file
 * Table 2: SPECWeb Banking workload characterization — dynamic x86
 * instructions per request, response sizes (SPECWeb and Rhythm buffer),
 * request mix and backend round trips, measured on our standalone host
 * implementation and printed next to the paper's reference columns.
 */

#include <iostream>

#include "bench/common.hh"
#include "platform/measure.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    bench::Reporter report("table2_workload", bench::parseArgs(argc, argv));
    bench::banner("Table 2: SPECWeb Banking workload characterization",
                  "Table 2 (instructions, response sizes, mix, backend)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(100, 2000, 7);

    TableWriter table({"request type", "insts/req (paper)",
                       "response KB (specweb)", "rhythm buffer KB",
                       "mix %", "backend", "validated"});
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        const auto &tm = wm.perType[i];
        report.metric(bench::slug(info.name) + ".instructions_per_request",
                      tm.instructionsPerRequest);
        table.addRow(
            {std::string(info.name),
             bench::withRef(tm.instructionsPerRequest,
                            info.paperInstructions, 0),
             bench::withRef(tm.responseBytes / 1024.0,
                            info.specwebResponseKb, 1),
             std::to_string(info.rhythmBufferKb),
             bench::fmt(info.mixPercent, 2),
             std::to_string(info.backendRequests),
             bench::fmt(tm.validationRate * 100.0, 0) + "%"});
    }
    table.printAscii(std::cout);
    std::cout << "Mix-weighted mean: "
              << bench::withRef(wm.mixWeightedInstructions, 331507, 0)
              << " insts/req, "
              << bench::withRef(wm.mixWeightedResponseBytes / 1024.0,
                                15.5, 1)
              << " KB/response (measured (paper)).\n"
              << "Paper also reports the simple average 429,563 insts "
                 "and 15.5 KB across types.\n";
    report.config("sessions", 100.0);
    report.config("users", 2000.0);
    report.metric("mix_weighted_instructions", wm.mixWeightedInstructions);
    report.metric("mix_weighted_response_bytes",
                  wm.mixWeightedResponseBytes);
    if (!report.write())
        return 1;
    return 0;
}
