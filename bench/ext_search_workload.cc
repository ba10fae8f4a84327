/**
 * @file
 * Extension experiment (paper Section 8): the Search workload on
 * Rhythm. Runs each Search page type in isolation on a Titan-B-style
 * platform — same pipeline, same device, different Service — and
 * reports throughput, latency and SIMD efficiency per type plus the
 * mix-weighted workload aggregate. Demonstrates the claim that Rhythm
 * generalizes beyond the Banking workload.
 */

#include "bench/page_sweep.hh"
#include "search/service.hh"

using namespace rhythm;

int
main(int argc, char **argv)
{
    bench::PageSweep sweep(
        argc, argv, "ext_search_workload",
        "Extension: the Search workload on Rhythm (Titan B)");
    std::cout << "Building corpus and inverted index...\n";
    search::Corpus corpus(4000, 4096, 7);
    search::InvertedIndex index(corpus);
    return sweep.run(
        {search::pageTable(), search::kNumPageTypes}, "device util",
        [&](uint32_t t) {
            const auto type = static_cast<search::PageType>(t);
            search::SearchService service(index);
            search::QueryGenerator gen(index.corpus(), 11);
            const platform::TypeRunResult r = sweep.isolate(
                service, [&](uint64_t) { return gen.generate(type).raw; });
            return bench::PageSweep::TypeRun{
                r, bench::fmt(r.deviceUtilization, 2)};
        },
        "same-type search cohorts keep high SIMD efficiency; the\nresults "
        "page (posting-list scans + ranking) is the heaviest type, as in "
        "production\nsearch front-ends.\n");
}
