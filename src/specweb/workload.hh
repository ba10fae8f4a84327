/**
 * @file
 * SPECWeb Banking workload generation and response validation.
 *
 * The paper's methodology (Section 5.3.1): requests are generated
 * synthetically with random session identifiers against a pre-populated
 * session array, each type is also testable in isolation, and responses
 * are validated against the SPECWeb client validator. This module is our
 * equivalent of that harness.
 */

#ifndef RHYTHM_SPECWEB_WORKLOAD_HH
#define RHYTHM_SPECWEB_WORKLOAD_HH

#include <span>
#include <string>
#include <utility>

#include "backend/bankdb.hh"
#include "specweb/types.hh"
#include "util/rng.hh"

namespace rhythm::specweb {

/** A generated client request. */
struct GeneratedRequest
{
    RequestType type = RequestType::Login;
    /** Complete raw HTTP request message. */
    std::string raw;
    /** The user the request acts as. */
    uint64_t userId = 0;
    /** The session cookie carried (0 for login). */
    uint64_t sessionId = 0;
};

/**
 * Generates Table 2-distributed Banking requests.
 *
 * The generator owns the request-mix sampling and per-type parameter
 * synthesis (valid user ids, check transaction ids, transfer amounts
 * small enough not to drain accounts over long runs). Session ids are
 * supplied by the caller, which either pre-populates the server's
 * session store (open-loop isolation runs) or feeds back ids extracted
 * from login responses (closed-loop runs).
 */
class WorkloadGenerator
{
  public:
    /**
     * @param db The populated database (used to pick valid parameters).
     * @param seed Deterministic seed for sampling.
     */
    WorkloadGenerator(const backend::BankDb &db, uint64_t seed);

    /** Samples a request type according to the Table 2 mix. */
    RequestType sampleType();

    /**
     * Samples the browsing steady state (Section 6): the Table 2 mix
     * without login and logout, which churn the session pool. Rejected
     * draws consume the RNG like any other.
     */
    RequestType sampleBrowsingType();

    /** Samples a uniform user id. */
    uint64_t sampleUser();

    /**
     * Builds a raw request of the given type.
     * @param type Request type.
     * @param user_id Acting user (must be valid in the database).
     * @param session_id Session cookie value (ignored for login).
     */
    GeneratedRequest generate(RequestType type, uint64_t user_id,
                              uint64_t session_id);

    /**
     * Builds request @p i of a run over a pre-populated session pool
     * (the isolation methodology, Section 5.3.1): a login acts as a
     * freshly sampled user without a session; any other type uses pool
     * entry i % pool.size(), a (session id, user id) pair.
     */
    GeneratedRequest
    fromPool(RequestType type,
             std::span<const std::pair<uint64_t, uint64_t>> pool,
             uint64_t i);

    /** Convenience: sampleType + sampleUser + generate. */
    GeneratedRequest next(uint64_t session_id);

  private:
    const backend::BankDb &db_;
    Rng rng_;
    MixSampler mix_;
    std::vector<uint64_t> checkTxIds_;
};

/** Outcome of validating one response. */
struct ValidationResult
{
    bool ok = false;
    std::string reason;
};

/**
 * Validates a complete HTTP response for a request type: status line,
 * Content-Length consistency (including the whitespace-padded value the
 * device writer produces), page marker and type-specific content.
 */
ValidationResult validateResponse(RequestType type, std::string_view raw);

/**
 * Extracts the session id from a login response's Set-Cookie header.
 * @return Session id, or 0 when absent.
 */
uint64_t extractSessionId(std::string_view response);

} // namespace rhythm::specweb

#endif // RHYTHM_SPECWEB_WORKLOAD_HH
