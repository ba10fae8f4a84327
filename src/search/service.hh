/**
 * @file
 * The Search workload as a Rhythm Service (the paper's Section 8
 * direction: "exploring other workloads like Search ... and deploying
 * them using Rhythm").
 *
 * Four cohort types:
 *
 * | id | page        | path       | backend | buffer |
 * |----|-------------|------------|---------|--------|
 * | 0  | home        | /          | none    | 8 KiB  |
 * | 1  | results     | /search    | QUERY   | 16 KiB |
 * | 2  | document    | /doc       | DOC     | 32 KiB |
 * | 3  | suggest     | /suggest   | SUGGEST | 4 KiB  |
 *
 * Search is sessionless; the cohorts group by page type exactly as the
 * Banking workload groups by PHP file. The backend protocol mirrors the
 * Banking one ('|'-separated wire records in fixed slots) so the same
 * pipeline transpose/copy machinery applies.
 */

#ifndef RHYTHM_SEARCH_SERVICE_HH
#define RHYTHM_SEARCH_SERVICE_HH

#include <string>

#include "rhythm/service.hh"
#include "search/index.hh"
#include "util/rng.hh"

namespace rhythm::search {

/** Cohort type ids of the Search service. */
enum class PageType : uint32_t {
    Home = 0,
    Results = 1,
    Document = 2,
    Suggest = 3,
};

/** Number of Search page types. */
inline constexpr uint32_t kNumPageTypes = 4;

/** Static metadata of one page type (mix shares: typical
 *  search-frontend traffic). */
using PageTypeInfo = core::TypeRow;

/** Metadata table (enum order). */
const PageTypeInfo *pageTable();

/** Metadata for one page type. */
const PageTypeInfo &pageInfo(PageType type);

/** Search on Rhythm. */
class SearchService : public core::TableService
{
  public:
    /** Binds to an index (not owned). */
    explicit SearchService(InvertedIndex &index)
        : TableService({pageTable(), kNumPageTypes}), index_(index)
    {
    }

    void runStage(uint32_t type_id, int stage,
                  specweb::HandlerContext &ctx) const override;
    bool stageIsLaneParallel(uint32_t type_id, int stage) const override;
    std::string executeBackend(std::string_view request,
                               simt::TraceRecorder &rec) override;

  private:
    void homePage(specweb::HandlerContext &ctx) const;
    void resultsPage(int stage, specweb::HandlerContext &ctx) const;
    void documentPage(int stage, specweb::HandlerContext &ctx) const;
    void suggestPage(int stage, specweb::HandlerContext &ctx) const;

    InvertedIndex &index_;
};

/** A generated search client request. */
struct GeneratedQuery
{
    PageType type = PageType::Home;
    std::string raw;
};

/** Generates mix-distributed Search requests. */
class QueryGenerator
{
  public:
    QueryGenerator(const Corpus &corpus, uint64_t seed);

    /** Samples a page type from the mix. */
    PageType sampleType();

    /** Builds a raw request of the given type. */
    GeneratedQuery generate(PageType type);

    /** Convenience: sampleType + generate. */
    GeneratedQuery next() { return generate(sampleType()); }

  private:
    const Corpus &corpus_;
    Rng rng_;
    MixSampler mix_;
};

/** Validates a Search response (http::checkFraming, page markers). */
bool validateSearchResponse(PageType type, std::string_view raw,
                            std::string *reason = nullptr);

} // namespace rhythm::search

#endif // RHYTHM_SEARCH_SERVICE_HH
