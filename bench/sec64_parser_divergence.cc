/**
 * @file
 * Section 6.4 "Parser divergence": parser throughput on a cohort of
 * mixed request types (a real trace shape) vs a single-type cohort.
 * The paper measured 556 µs per 4096-request mixed cohort including the
 * request-buffer transpose — 7.4M reqs/s — concluding one parser
 * instance suffices even with divergence.
 */

#include <iostream>

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "http/parser.hh"
#include "rhythm/buffers.hh"
#include "simt/device.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

/** Builds a parser kernel profile over a set of raw requests. */
simt::KernelProfile
profileParser(const std::vector<std::string> &raws, uint32_t slot_bytes)
{
    std::vector<simt::ThreadTrace> traces(raws.size());
    for (size_t i = 0; i < raws.size(); ++i) {
        simt::RecordingTracer rec(traces[i]);
        http::Request req;
        http::parseRequest(raws[i], 0x9000'0000 + i * slot_bytes, rec,
                           req);
        // The request-buffer transpose runs first, so the parser reads
        // the transposed (coalesced) layout.
        core::transposeRegionLoads(traces[i], 0x9000'0000,
                                   static_cast<uint32_t>(i), slot_bytes,
                                   static_cast<uint32_t>(raws.size()));
    }
    std::vector<const simt::ThreadTrace *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(&t);
    return simt::KernelProfile::fromTraces(ptrs, simt::WarpModel{},
                                           "parser");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter report("sec64_parser_divergence",
                           bench::parseArgs(argc, argv));
    bench::banner("Section 6.4: parser divergence",
                  "Section 6.4 (mixed cohort: 556 us, 7.4M reqs/s at "
                  "4096)");

    const uint32_t cohort = 4096;
    const uint32_t slot = 1024;
    backend::BankDb db(2000, 3);
    specweb::WorkloadGenerator gen(db, 11);
    simt::DeviceConfig dev;

    // Request-buffer transpose precedes the parser (the paper includes
    // it in the 556 us figure).
    simt::KernelProfile transpose = simt::KernelProfile::streaming(
        cohort, 2ull * cohort * slot, 96, simt::WarpModel{}, "transpose");
    const double transpose_us =
        computeKernelCost(transpose, dev).deviceSeconds * 1e6;

    // Divergence-free baseline: each type parsed in its own cohort, the
    // per-request times combined with the Table 2 mix. The mixed cohort
    // is then compared against that expectation, isolating the cost of
    // control divergence in the parser.
    double baseline_us_per_req = 0.0;
    double min_eff = 1.0;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        std::vector<std::string> raws;
        for (uint32_t r = 0; r < cohort; ++r)
            raws.push_back(
                gen.generate(info.type, gen.sampleUser(), 1 + r).raw);
        simt::KernelProfile kp = profileParser(raws, slot);
        min_eff = std::min(min_eff, kp.simdEfficiency(32));
        baseline_us_per_req += info.mixPercent / 100.0 *
                               computeKernelCost(kp, dev).deviceSeconds *
                               1e6 / cohort;
    }

    std::vector<std::string> mixed;
    for (uint32_t i = 0; i < cohort; ++i)
        mixed.push_back(gen.next(1 + i % 4096).raw);
    simt::KernelProfile mixed_kp = profileParser(mixed, slot);
    simt::KernelCost mixed_cost = computeKernelCost(mixed_kp, dev);
    const double mixed_us = mixed_cost.deviceSeconds * 1e6 + transpose_us;
    const double baseline_us =
        baseline_us_per_req * cohort + transpose_us;

    TableWriter table({"cohort mix", "SIMD efficiency",
                       "kernel time us (incl. transpose)",
                       "parser MReqs/s", "paper"});
    table.addRow({"per-type cohorts (mix-weighted)",
                  ">= " + bench::fmt(min_eff, 2),
                  bench::fmt(baseline_us, 0),
                  bench::fmt(cohort / baseline_us, 1), "-"});
    table.addRow({"Table 2 mixed cohort",
                  bench::fmt(mixed_kp.simdEfficiency(32), 2),
                  bench::fmt(mixed_us, 0),
                  bench::fmt(cohort / mixed_us, 1),
                  "556 us, 7.4 MReqs/s"});
    table.printAscii(std::cout);
    std::cout << "Divergence slowdown (mixed vs per-type): "
              << bench::fmt(mixed_us / baseline_us, 2) << "x\n";
    std::cout
        << "Conclusion to verify (paper): even the fully mixed cohort "
           "parses fast enough\nthat a single parser instance does not "
           "limit server throughput; Rhythm can also\nrun multiple "
           "parser instances concurrently.\n";
    report.config("cohort_size", cohort);
    report.metric("mixed_cohort_us", mixed_us);
    report.metric("mixed_parser_mreqs", cohort / mixed_us);
    report.metric("mixed_simd_efficiency", mixed_kp.simdEfficiency(32));
    report.metric("divergence_slowdown", mixed_us / baseline_us);
    if (!report.write())
        return 1;
    return 0;
}
