/**
 * @file
 * The page-type sweep of the service benches (ext_chat_workload,
 * ext_search_workload; paper Section 8): every page type of a service
 * runs alone on Titan B, and the bench reports each type's throughput,
 * latency and SIMD efficiency plus the mix-weighted harmonic mean of
 * the throughputs (the Section 5.3.1 aggregation).
 */

#ifndef RHYTHM_BENCH_PAGE_SWEEP_HH
#define RHYTHM_BENCH_PAGE_SWEEP_HH

#include <functional>
#include <utility>

#include "bench/common.hh"
#include "rhythm/service.hh"
#include "util/stats.hh"

namespace rhythm::bench {

/** One service bench: its command line, platform and report. */
class PageSweep
{
  public:
    /** One type's run and the cell of the bench's own last column. */
    using TypeRun = std::pair<platform::TypeRunResult, std::string>;

    /**
     * Parses the command line (the fault and overlap families), prints
     * the banner and records the config. Exits 2 on --recovery, which
     * journals the banking backend only.
     */
    PageSweep(int argc, char **argv, std::string bench,
              const std::string &title)
        : flags_(parseArgs(argc, argv,
                           {FaultFlags::kTable, OverlapFlags::kTable})),
          report_(std::move(bench), flags_)
    {
        const FaultFlags faults(flags_);
        const OverlapFlags overlap(flags_);
        if (faults.recovery)
            std::exit(usageError(
                "--recovery supports the banking workload only"));
        banner(title, "Section 8 future work (Search/Email/Chat on Rhythm)");
        faults.recordConfig(report_);
        overlap.recordConfig(report_);
        // Titan B, every page type in isolation.
        variant_.server.laneSample = 128;
        faults.apply(variant_);
        overlap.apply(variant_);
        options_.cohorts = 8;
        faults.apply(options_);
    }

    /** Runs @p service alone on the requests @p source returns. */
    platform::TypeRunResult
    isolate(core::Service &service,
            const platform::RequestSource &source) const
    {
        return platform::runIsolated(
            variant_, service, options_,
            [&](core::RhythmServer &) { return source; });
    }

    /**
     * Runs type t = 0, 1, ... of @p rows through @p run_type, then
     * prints the table (its last column headed @p column), the
     * mix-weighted throughput and @p observations, and writes --json.
     * @return The exit code.
     */
    int
    run(std::span<const core::TypeRow> rows, const std::string &column,
        const std::function<TypeRun(uint32_t)> &run_type,
        std::string_view observations)
    {
        TableWriter table({"page type", "mix %", "KReqs/s", "latency ms",
                           "SIMD eff", column});
        WeightedHarmonicMean whm;
        for (uint32_t t = 0; t < rows.size(); ++t) {
            const core::TypeRow &info = rows[t];
            const auto [r, cell] = run_type(t);
            whm.add(info.mixPercent, r.throughput);
            const std::string key = slug(info.name);
            report_.metric(key + ".throughput", r.throughput);
            report_.metric(key + ".simd_efficiency", r.simdEfficiency);
            table.addRow({std::string(info.name), fmt(info.mixPercent, 0),
                          fmt(r.throughput / 1e3, 0),
                          fmt(r.avgLatencyMs, 2), fmt(r.simdEfficiency, 2),
                          cell});
        }
        table.printAscii(std::cout);
        std::cout << "Mix-weighted workload throughput: "
                  << fmt(whm.value() / 1e3, 0)
                  << " KReqs/s (no paper reference — this experiment "
                     "extends the paper).\nObservations to check: "
                  << observations;
        report_.metric("mix_weighted_throughput", whm.value());
        return report_.write() ? 0 : 1;
    }

  private:
    Flags flags_;
    Reporter report_;
    platform::TitanVariant variant_ = platform::titanB();
    platform::IsolatedRunOptions options_;
};

} // namespace rhythm::bench

#endif // RHYTHM_BENCH_PAGE_SWEEP_HH
