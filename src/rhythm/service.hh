/**
 * @file
 * The service interface: what a web application must provide to run on
 * the Rhythm pipeline.
 *
 * Rhythm itself is workload-agnostic (the paper deploys SPECWeb Banking
 * and names Search, Email and Chat as future services, Section 8). A
 * Service maps parsed requests to cohort types, decomposes each type
 * into backend-separated process stages, and executes its own backend.
 * The pipeline handles everything else: cohort formation, kernels,
 * buffers, transposes, copies and responses. A service whose types are
 * one table of pages (Chat, Search) derives from TableService and
 * supplies only its rows, its stage handlers and its backend.
 */

#ifndef RHYTHM_RHYTHM_SERVICE_HH
#define RHYTHM_RHYTHM_SERVICE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "http/http.hh"
#include "simt/trace.hh"
#include "specweb/context.hh"
#include "util/logging.hh"

namespace rhythm::core {

/** A cohort-servable web application. */
class Service
{
  public:
    virtual ~Service() = default;

    /** Number of cohort types; type ids are [0, numTypes()). */
    virtual uint32_t numTypes() const = 0;

    /**
     * Resolves a parsed request to its cohort type.
     * @return false when the request is not served by this service
     *         (the pipeline responds 404).
     */
    virtual bool resolveType(const http::Request &request,
                             uint32_t &type_id) const = 0;

    /** Human-readable type name (kernels and stats are labelled). */
    virtual std::string_view typeName(uint32_t type_id) const = 0;

    /** Process stages for a type (backend round trips + 1). */
    virtual int numStages(uint32_t type_id) const = 0;

    /** Response buffer bytes per request of this type (power of two). */
    virtual uint32_t responseBufferBytes(uint32_t type_id) const = 0;

    /**
     * Runs one process stage (see specweb::HandlerContext for the
     * stage protocol).
     */
    virtual void runStage(uint32_t type_id, int stage,
                          specweb::HandlerContext &ctx) const = 0;

    /**
     * Whether runStage(type_id, stage) may execute concurrently for
     * distinct lanes of one cohort (the pipeline then fans the stage
     * out over the sim pool and merges in canonical lane order).
     *
     * A stage qualifies only if, for lanes of the same cohort, its
     * execution is pure with respect to shared state: it may read
     * shared structures that no lane of the stage mutates (e.g. session
     * lookup) but must not write them, consume shared RNG streams, or
     * otherwise make one lane's output depend on another lane's
     * execution order. Stages that mutate shared state (session
     * create/destroy) must return false and run serially. Defaults to
     * false: services opt stages in after auditing them, and an
     * unaudited stage runs its lanes serially, in lane order.
     */
    virtual bool
    stageIsLaneParallel(uint32_t type_id, int stage) const
    {
        (void)type_id;
        (void)stage;
        return false;
    }

    /** Executes one wire-format backend request. */
    virtual std::string executeBackend(std::string_view request,
                                       simt::TraceRecorder &rec) = 0;

    /**
     * Token-carrying variant: @p token is the pipeline's idempotency
     * token for this logical backend call — stable across retries and
     * watchdog-hedged re-executions of the same cohort, unique across
     * logical calls. Services with a recovery/idempotency layer key
     * their exactly-once filter on it; the default ignores it.
     */
    virtual std::string executeBackend(std::string_view request,
                                       uint64_t token,
                                       simt::TraceRecorder &rec)
    {
        (void)token;
        return executeBackend(request, rec);
    }

    /**
     * True when repeated executeBackend calls carrying one token apply
     * the operation exactly once (an idempotency layer is attached).
     * The pipeline's watchdog only replays a hedged cohort's backend
     * calls when this holds — without the filter a replayed mutation
     * would apply twice.
     */
    virtual bool backendExactlyOnce() const { return false; }

    /** Wire slot bytes reserved per backend request. */
    virtual uint32_t backendRequestSlotBytes() const { return 1024; }

    /** Wire slot bytes reserved per backend response. */
    virtual uint32_t backendResponseSlotBytes() const { return 4096; }

    /**
     * Serves a request that does not fit the data-parallel model on
     * the host (Section 3.1 dispatch).
     * @param sessions The pipeline's session store.
     * @return The complete response, or nullopt when the path is not a
     *         host-fallback route.
     */
    virtual std::optional<std::string>
    serveFallback(const http::Request &request,
                  specweb::SessionProvider &sessions,
                  simt::TraceRecorder &rec)
    {
        (void)request;
        (void)sessions;
        (void)rec;
        return std::nullopt;
    }
};

/** One cohort type of a table-driven service (type id = row index). */
struct TypeRow
{
    std::string_view name;
    /** URL path served by this type (matched exactly). */
    std::string_view path;
    /** Backend round trips (process stages = this + 1). */
    int backendRequests;
    /** Response buffer bytes per request (power of two). */
    uint32_t bufferBytes;
    /** Share of the request mix, in percent. */
    double mixPercent;
};

/** A service whose type lookups are answered from its table of rows. */
class TableService : public Service
{
  public:
    /** @param rows The type table (not owned; must outlive the service). */
    explicit TableService(std::span<const TypeRow> rows) : rows_(rows) {}

    uint32_t
    numTypes() const override
    {
        return static_cast<uint32_t>(rows_.size());
    }

    bool
    resolveType(const http::Request &request,
                uint32_t &type_id) const override
    {
        for (uint32_t t = 0; t < rows_.size(); ++t) {
            if (request.path == rows_[t].path) {
                type_id = t;
                return true;
            }
        }
        return false;
    }

    std::string_view
    typeName(uint32_t type_id) const override
    {
        return row(type_id).name;
    }

    int
    numStages(uint32_t type_id) const override
    {
        return row(type_id).backendRequests + 1;
    }

    uint32_t
    responseBufferBytes(uint32_t type_id) const override
    {
        return row(type_id).bufferBytes;
    }

  private:
    const TypeRow &
    row(uint32_t type_id) const
    {
        RHYTHM_ASSERT(type_id < rows_.size());
        return rows_[type_id];
    }

    std::span<const TypeRow> rows_;
};

} // namespace rhythm::core

#endif // RHYTHM_RHYTHM_SERVICE_HH
