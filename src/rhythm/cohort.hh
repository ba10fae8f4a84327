/**
 * @file
 * Cohort contexts and the cohort pool (paper Section 3.1, "Cohort
 * Management").
 *
 * A cohort context tracks one batch of same-type requests through the
 * pipeline. Contexts move through the FSM
 *
 *     Free → PartiallyFull → Full → Busy → Free
 *
 * (a timeout may launch a PartiallyFull cohort directly to Busy). The
 * pool owns a fixed set of contexts — statically allocated, as in the
 * paper, to avoid allocation and synchronization in the event loop — and
 * the pipeline stalls (structural hazard) when no context is Free.
 */

#ifndef RHYTHM_RHYTHM_COHORT_HH
#define RHYTHM_RHYTHM_COHORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "des/time.hh"
#include "http/http.hh"


namespace rhythm::core {

/** Lifecycle states of a cohort context. */
enum class CohortState : uint8_t {
    Free,          //!< Available for a new cohort.
    PartiallyFull, //!< Accumulating requests.
    Full,          //!< At capacity, awaiting dispatch.
    Busy,          //!< Executing in the pipeline.
};

/** Returns a printable state name. */
std::string_view cohortStateName(CohortState state);

/** One request riding in a cohort. */
struct CohortEntry
{
    /** Sentinel: the entry has no cohort type (host fallback or 404). */
    static constexpr uint32_t kTypeUnresolved = UINT32_MAX;
    /** Sentinel: the entry is a stored static asset (image cohort). */
    static constexpr uint32_t kRouteStatic = UINT32_MAX - 1;

    http::Request request;
    std::string raw;
    des::Time arrival = 0;
    uint64_t clientId = 0;
    /**
     * Route resolved once, when the dispatcher queues the entry: a
     * cohort type id, kRouteStatic, or kTypeUnresolved.
     */
    uint32_t routeType = kTypeUnresolved;
    /** Dispatch arrival order (the dispatcher's merge key). */
    uint64_t routeSeq = 0;
};

/** One cohort's context. */
class CohortContext
{
  public:
    /** @param id Stable context id within the pool. */
    explicit CohortContext(uint32_t id) : id_(id) {}

    /** Stable pool-slot id. */
    uint32_t id() const { return id_; }

    /** Current FSM state. */
    CohortState state() const { return state_; }

    /** Service-defined cohort type id carried (valid unless Free). */
    uint32_t type() const { return type_; }

    /** Capacity this cohort was allocated with. */
    uint32_t capacity() const { return capacity_; }

    /** Requests currently aboard. */
    const std::vector<CohortEntry> &entries() const { return entries_; }

    /** Arrival time of the oldest aboard request (0 when empty). */
    des::Time firstArrival() const { return firstArrival_; }

    /** Free → PartiallyFull (empty): claims the context for a type. */
    void allocate(uint32_t type, uint32_t capacity);

    /**
     * Adds a request (PartiallyFull only).
     * @return true if the cohort became Full.
     */
    bool add(CohortEntry entry);

    /** PartiallyFull/Full → Busy: the cohort enters the pipeline. */
    void markBusy();

    /** Busy → Free: responses sent, resources recycled. */
    void release();

  private:
    uint32_t id_;
    CohortState state_ = CohortState::Free;
    uint32_t type_ = 0;
    uint32_t capacity_ = 0;
    des::Time firstArrival_ = 0;
    std::vector<CohortEntry> entries_;
};

/** Fixed-size pool of cohort contexts. */
class CohortPool
{
  public:
    /**
     * @param contexts Number of contexts (cohorts in flight bound).
     * @param capacity Requests per cohort.
     */
    CohortPool(uint32_t contexts, uint32_t capacity);

    /**
     * Returns the context accepting requests of @p type: an existing
     * PartiallyFull one, else a freshly allocated Free one, else
     * nullptr (structural hazard — the caller stalls the reader).
     */
    CohortContext *acquireFor(uint32_t type);

    /** Context count by state. */
    uint32_t countInState(CohortState state) const;

    /** Applies @p fn to every non-Free, non-Busy context. */
    void forEachForming(const std::function<void(CohortContext &)> &fn);

    /**
     * Returns the non-empty PartiallyFull context with the earliest
     * firstArrival() among those @p eligible accepts, or nullptr.
     * Ties break on pool order (lowest id), so the choice is
     * deterministic — the adaptive batcher uses this to pick a
     * preemption victim (DESIGN.md Section 6i).
     */
    CohortContext *oldestPartiallyFull(
        const std::function<bool(const CohortContext &)> &eligible);

    /** All contexts (for inspection). */
    const std::vector<CohortContext> &contexts() const { return pool_; }

    /** Per-cohort request capacity. */
    uint32_t capacity() const { return capacity_; }

    /** Times acquireFor returned nullptr. */
    uint64_t stalls() const { return stalls_; }

  private:
    uint32_t capacity_;
    std::vector<CohortContext> pool_;
    uint64_t stalls_ = 0;
};

} // namespace rhythm::core

#endif // RHYTHM_RHYTHM_COHORT_HH
