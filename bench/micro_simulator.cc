/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: warp
 * lockstep merge, the memory coalescer, HTTP parsing and trace
 * recording. These measure *host* wall-clock cost (how fast the
 * simulator simulates), not simulated performance — useful when tuning
 * the simulator or sizing experiment budgets.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench/common.hh"

#include "backend/bankdb.hh"
#include "host/server.hh"
#include "http/parser.hh"
#include "simt/kernel.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

/** Warp merge over 32 identical ~200-block traces (the common case). */
void
BM_WarpMergeUniform(benchmark::State &state)
{
    simt::ThreadTrace trace;
    simt::RecordingTracer rec(trace);
    for (uint32_t b = 0; b < 200; ++b) {
        rec.block(b % 40, 20);
        rec.store(0x1000 + b * 512, 32, 128, 4);
    }
    std::vector<const simt::ThreadTrace *> lanes(32, &trace);
    for (auto _ : state) {
        simt::WarpStats ws = simt::simulateWarp(
            std::span<const simt::ThreadTrace *const>(lanes.data(), 32));
        benchmark::DoNotOptimize(ws.issueSlots);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpMergeUniform);

/** Warp merge over divergent traces (distinct block id streams). */
void
BM_WarpMergeDivergent(benchmark::State &state)
{
    std::vector<simt::ThreadTrace> traces(32);
    for (uint32_t l = 0; l < 32; ++l) {
        simt::RecordingTracer rec(traces[l]);
        for (uint32_t b = 0; b < 100; ++b)
            rec.block(1000 * (l % 8) + b, 10);
    }
    std::vector<const simt::ThreadTrace *> lanes;
    for (auto &t : traces)
        lanes.push_back(&t);
    for (auto _ : state) {
        simt::WarpStats ws = simt::simulateWarp(
            std::span<const simt::ThreadTrace *const>(lanes.data(), 32));
        benchmark::DoNotOptimize(ws.issueSlots);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpMergeDivergent);

/** The 128-byte coalescer on a full warp access. */
void
BM_Coalescer(benchmark::State &state)
{
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 4096);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simt::coalesceTransactions(addrs, 4, 128));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalescer);

/** HTTP request parsing (host fast path, null tracer). */
void
BM_HttpParse(benchmark::State &state)
{
    simt::NullTracer null;
    const std::string raw =
        "GET /bank/account_summary.php?acct=101&max=20 HTTP/1.1\r\n"
        "Host: bank.example.com\r\n"
        "Cookie: lang=en; session=987654321\r\n"
        "Accept: text/html\r\n\r\n";
    for (auto _ : state) {
        http::Request req;
        benchmark::DoNotOptimize(
            http::parseRequest(raw, 0, null, req));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_HttpParse);

/** End-to-end host serving of one Banking request (null tracer). */
void
BM_HostServe(benchmark::State &state)
{
    backend::BankDb db(200, 3);
    specweb::MapSessionProvider sessions;
    host::HostServer server(db, sessions);
    specweb::WorkloadGenerator gen(db, 7);
    simt::NullTracer null;
    const uint64_t sid = sessions.create(5, null);
    const specweb::GeneratedRequest req =
        gen.generate(specweb::RequestType::AccountSummary, 5, sid);
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.serve(req.raw, null));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostServe);

/** Same request with full trace recording (the simulation path). */
void
BM_HostServeRecorded(benchmark::State &state)
{
    backend::BankDb db(200, 3);
    specweb::MapSessionProvider sessions;
    host::HostServer server(db, sessions);
    specweb::WorkloadGenerator gen(db, 7);
    simt::NullTracer null;
    const uint64_t sid = sessions.create(5, null);
    const specweb::GeneratedRequest req =
        gen.generate(specweb::RequestType::AccountSummary, 5, sid);
    for (auto _ : state) {
        simt::ThreadTrace trace;
        simt::RecordingTracer rec(trace);
        benchmark::DoNotOptimize(server.serve(req.raw, rec));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostServeRecorded);

} // namespace

// Like BENCHMARK_MAIN(), but translates the repo-wide `--json=<path>`
// convention into google-benchmark's native JSON reporter flags so every
// bench binary shares one machine-readable interface.
int
main(int argc, char **argv)
{
    // Honor the repo-wide --sim-threads flag (every other bench gets
    // it from bench::parseArgs), then strip it so google-benchmark does
    // not reject an unknown argument.
    std::vector<std::string> args;
    args.reserve(static_cast<size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.starts_with("--sim-threads=")) {
            uint64_t threads = 0;
            if (!rhythm::parseU64(arg.substr(14), threads))
                return rhythm::bench::usageError(
                    "--sim-threads must be an unsigned integer, got: " +
                    std::string(arg.substr(14)));
            rhythm::util::setSimThreads(static_cast<unsigned>(threads));
            continue;
        }
        args.emplace_back(arg);
    }
    bool json = false;
    for (auto &arg : args) {
        if (arg.rfind("--json=", 0) == 0) {
            arg = "--benchmark_out=" + arg.substr(7);
            json = true;
        }
    }
    if (json)
        args.push_back("--benchmark_out_format=json");
    std::vector<char *> cargs;
    for (auto &arg : args)
        cargs.push_back(arg.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
