/**
 * @file
 * The Rhythm server: a single-threaded, event-driven, cohort-pipelined
 * web server executing on the simulated SIMT device (paper Sections 3-4).
 *
 * Pipeline: Reader (double-buffered batches) → request-buffer transpose →
 * Parser kernel → Dispatch (host; groups parsed requests into typed
 * cohorts) → Process stages interleaved with Backend access → response
 * transpose → Response. Each typed cohort rides a device stream; multiple
 * cohorts are kept in flight to saturate the device (HyperQ).
 *
 * Platform variants from the paper map onto the configuration:
 *  - Titan A: networkOverPcie=true, backendOnDevice=false — request,
 *    response and backend records cross the PCIe link; backend runs on
 *    host threads.
 *  - Titan B: networkOverPcie=false, backendOnDevice=true — SoC-style
 *    integrated NIC and device backend.
 *  - Titan C: Titan B + offloadResponseTranspose=true — the response
 *    transpose is performed by NIC/memory-controller hardware.
 *
 * Handlers execute for real (the responses are genuine, validatable
 * HTTP), producing per-thread traces that the SIMT model turns into
 * kernel costs. For large cohorts the server can execute a sample of
 * lanes and scale the kernel profiles (laneSample), the standard
 * sampling trade made by architectural simulators.
 */

#ifndef RHYTHM_RHYTHM_SERVER_HH
#define RHYTHM_RHYTHM_SERVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/fingerprint.hh"
#include "des/event_queue.hh"
#include "fault/plan.hh"
#include "rhythm/buffers.hh"
#include "rhythm/cohort.hh"
#include "rhythm/service.hh"
#include "rhythm/session_array.hh"
#include "simt/device.hh"
#include "specweb/static_content.hh"
#include "util/stats.hh"

namespace rhythm::core {

/** Rhythm server configuration. */
struct RhythmConfig
{
    /** Requests per cohort (paper sweet spot: 4096). */
    uint32_t cohortSize = 4096;
    /** Cohort contexts ≈ cohorts in flight (paper: 8 on the Titan). */
    uint32_t cohortContexts = 8;
    /** Cohort-formation timeout for partial cohorts. */
    des::Time cohortTimeout = 2 * des::kMillisecond;
    /** Run the backend on the device (Titan B/C) vs host (Titan A). */
    bool backendOnDevice = false;
    /** Requests/responses cross the PCIe link (discrete GPU, Titan A). */
    bool networkOverPcie = true;
    /** Transpose cohort buffers for coalesced access (Section 4.3.2). */
    bool transposeBuffers = true;
    /** Warp-max whitespace padding of responses. */
    bool padResponses = true;
    /** Offload the response transpose to NIC/DRAM logic (Titan C). */
    bool offloadResponseTranspose = false;
    /** Host backend service rate (vector-interface KV store, §2.2.3). */
    double hostBackendReqsPerSec = 10e6;
    /** PCIe slot bytes reserved per raw request (paper: 1 KiB). */
    uint32_t requestSlotBytes = 1024;
    /** Execute only this many lanes per cohort and scale profiles
     *  (0 = execute every lane; use powers of the warp width). */
    uint32_t laneSample = 0;
    /** Session array depth (capacity = cohortSize × this). */
    uint32_t sessionNodesPerBucket = 16;
    /**
     * Host instruction rate for fallback execution (quick pay and other
     * requests that do not fit the data-parallel model, Section 3.1).
     */
    double hostFallbackInstsPerSec = 20e9;
    /**
     * Parser trace-template cache capacity in entries (0 = off, the
     * default). When on, the parser records each distinct raw request
     * once at a canonical base address and replays later occurrences
     * by patching the per-request address base — the parser's trace is
     * an affine function of its buffer address, so the replayed trace
     * is byte-identical to a fresh recording (DESIGN.md Section 6e).
     * Purely a host wall-clock optimization; simulated results do not
     * change.
     */
    uint32_t traceTemplateCacheEntries = 0;
    /** Warp model for kernel profiling. */
    simt::WarpModel warpModel;

    // ---- Robustness / graceful degradation (all off by default, so
    // ---- a default config reproduces the paper's figures exactly) --

    /**
     * Per-request completion deadline (0 = none). Late responses are
     * still delivered but counted as deadline misses: the client gave
     * up, so they are lost goodput.
     */
    des::Time requestDeadline = 0;
    /**
     * Backend retry attempts allowed per cohort (0 = a failed backend
     * call 503s its lane immediately). The budget is shared by all
     * lanes of a cohort so a full brownout cannot retry-storm.
     */
    uint32_t backendRetryBudget = 0;
    /** Backoff before the first retry round; doubles every round. */
    des::Time retryBackoffBase = 50 * des::kMicrosecond;
    /**
     * Shed (immediate 503) new requests while the formation backlog —
     * reader batch + dispatch queue + forming cohorts — is at or above
     * this many requests (0 = no backlog shedding).
     */
    uint32_t shedBacklogLimit = 0;
    /**
     * Shed new requests while the windowed p99 latency exceeds this
     * SLO (0 = no latency shedding). Uses the last `sloWindow`
     * completions so the server re-admits once the brownout clears.
     */
    des::Time shedLatencySlo = 0;
    /** Completions considered by the latency shedder. */
    uint32_t sloWindow = 512;
    /**
     * Straggler watchdog (0 = off). A cohort still in flight this long
     * after launch is hedged: its command sequence re-executes on a
     * dedicated hedge stream (any injected kernel hang excised) and the
     * first execution to finish delivers; the loser is cancelled
     * without side effects. When the service reports
     * backendExactlyOnce(), the hedge also re-issues the cohort's
     * backend calls through the idempotency filter so a crash-lost
     * primary cannot strand journaled state.
     */
    des::Time watchdogTimeout = 0;

    // ---- Transfer/compute overlap (off by default, so a default
    // ---- config reproduces the paper's figures exactly) -------------

    /**
     * Pipeline the host stages against device execution (DESIGN.md 6h):
     * two parser batches may be in flight at once (Reader/Parser of
     * cohort k+1 runs under Process of cohort k, each parser chain on
     * its own stream), and Titan A's network transfers are scissored to
     * occupied bytes — the parser upload ships the bytes requests
     * actually occupy in their slots and the response download ships
     * content + padding instead of the full loose-fit buffer. Parsed
     * batches dispatch strictly in batch order through a reorder
     * buffer, so cohort formation, backend mutation order and response
     * bytes are identical to the serial pipeline. Pair with
     * DeviceConfig::copyEngines/copyChunkBytes so the chunked uploads
     * and downloads actually interleave on the link.
     */
    bool overlapPipeline = false;

    // ---- Adaptive deadline-aware batching (off by default, so a
    // ---- default config reproduces the paper's figures exactly) ------

    /**
     * Deadline-aware adaptive cohort formation (DESIGN.md Section 6i).
     * The timeout scan additionally dispatches a forming cohort early
     * when the oldest aboard request's slack against its per-type
     * deadline drops below the modeled pipeline cost (an EWMA of recent
     * launch→response times, scaled by slackSafety). Off: formation is
     * driven purely by cohortSize/cohortTimeout, byte-identical to the
     * fixed pipeline.
     */
    bool adaptiveBatching = false;
    /**
     * Per-type completion deadlines, indexed by service type id
     * (entries of 0, or types beyond the vector, use defaultDeadline).
     * When any deadline is set the server tracks typed deadline
     * hits/misses even in fixed mode, so fixed and adaptive runs report
     * comparable attainment; only adaptiveBatching changes scheduling.
     */
    std::vector<des::Time> typeDeadlines;
    /** Deadline for types without a typeDeadlines entry. */
    des::Time defaultDeadline = 10 * des::kMillisecond;
    /** Safety factor applied to the pipeline-cost estimate. */
    double slackSafety = 1.2;
    /**
     * Adaptive slack-scan period. The timeout scan re-arms at
     * min(cohortTimeout/2, this) so slack is checked often enough for
     * tight deadlines even with a long formation timeout.
     */
    des::Time adaptiveScanInterval = 200 * des::kMicrosecond;
    /**
     * Deadline-aware admission control (consulted only with
     * adaptiveBatching): shed arrivals whose estimated queue-drain time
     * already exceeds the tightest deadline, on top of the backlog/p99
     * shedder.
     */
    bool adaptiveAdmission = true;

    // ---- Sub-warp packing / cross-type cohort fusion (off by
    // ---- default, so a default config reproduces the paper exactly) --

    /**
     * Cross-type cohort fusion (DESIGN.md Section 6j). When several
     * partial cohorts launch at the same scan instant, pack the lanes
     * of similarity-compatible types into one shared kernel-launch
     * sequence instead of padding each cohort's tail warp separately.
     * Lane placement is divergence-aware: each cohort's lanes stay
     * contiguous, so the lockstep scheduler's majority-block selection
     * still amortizes fetches over same-type runs. Delivered response
     * bytes are identical fusion on/off; only the modeled kernel
     * costs, occupancy and SIMD efficiency change.
     */
    bool fusionEnabled = false;
    /**
     * Minimum predicted pair similarity (the Figure 2 normalized-
     * speedup EWMA, see analysis/fingerprint.hh) for two types to
     * share a fused launch. 0.5 is the indifference point: below it a
     * mixed warp serializes more than separate padded warps would
     * waste.
     */
    double fusionSimilarityThreshold = 0.5;
    /** Maximum cohorts packed into one fused launch. */
    uint32_t fusionMaxCohorts = 4;
    /** Online control-flow fingerprint tuning (EWMA alpha, sampling). */
    analysis::FingerprintConfig fingerprint;
};

/**
 * Aggregate server statistics.
 *
 * Conservation invariant: every request the server accepted ownership
 * of is answered exactly once —
 *
 *     requestsAccepted == responsesCompleted + errorResponses
 *                         + requestsShed
 *
 * (responses to disconnected clients are counted as errorResponses:
 * the work happened but no client saw it). Reader-full rejections are
 * NOT accepted; they count in readerDrops and the caller retries.
 */
struct RhythmStats
{
    /** Requests taken from the client, including shed ones. */
    uint64_t requestsAccepted = 0;
    /** Successful responses delivered (errors counted separately). */
    uint64_t responsesCompleted = 0;
    /** Error responses (4xx/5xx) plus undeliverable responses. */
    uint64_t errorResponses = 0;
    uint64_t cohortsLaunched = 0;
    uint64_t cohortTimeouts = 0;
    uint64_t parserBatches = 0;
    /** Requests served on the host CPU (quick pay fallback). */
    uint64_t hostFallbackRequests = 0;
    /** Static image requests served via image cohorts. */
    uint64_t imageRequests = 0;
    /** Image cohorts launched (bypass the process stage). */
    uint64_t imageCohorts = 0;
    uint64_t imageBytes = 0;
    uint64_t backendRequests = 0;
    uint64_t responseBytes = 0;
    uint64_t paddingBytes = 0;
    /** Request latency (arrival → response sent), milliseconds. */
    Histogram latencyMs;
    /** Cohort-formation wait (arrival → cohort launch), milliseconds. */
    Histogram formationMs;
    /** Pipeline execution (cohort launch → response), milliseconds. */
    Histogram pipelineMs;
    /** Aggregate SIMD efficiency of process-stage kernels. */
    double processIssueSlots = 0;
    double processLaneInstructions = 0;

    // ---- Robustness / degradation counters -------------------------
    /** Requests rejected with an immediate 503 by the load shedder. */
    uint64_t requestsShed = 0;
    /** injectRequest refusals (reader double-buffer full). */
    uint64_t readerDrops = 0;
    /** Backend calls re-issued after a transient failure. */
    uint64_t backendRetries = 0;
    /** Lanes answered 503 after the cohort retry budget ran out. */
    uint64_t backendFailedLanes = 0;
    /** Responses delivered later than the request deadline. */
    uint64_t deadlineMisses = 0;
    /** Responses undeliverable because the client disconnected. */
    uint64_t clientDisconnects = 0;
    /** Fault-plan injections observed at server-consulted sites. */
    uint64_t faultsInjected = 0;
    /** Simulated time spent in degraded (shedding) mode. */
    des::Time degradedTime = 0;

    // ---- Watchdog / hedged execution -------------------------------
    /** Injected kernel hangs (fault::Site::KernelHang fires). */
    uint64_t kernelHangs = 0;
    /** Watchdog expirations that launched a hedged re-execution. */
    uint64_t watchdogFires = 0;
    /** Hedged executions that finished first and delivered. */
    uint64_t hedgeWins = 0;
    /** Losing executions cancelled after the winner delivered. */
    uint64_t hedgeCancelled = 0;
    /** Backend calls a hedge re-issued through the idempotency layer. */
    uint64_t hedgeReplayedCalls = 0;
    /** Hedge-replayed calls whose response differed from the primary's
     *  (non-memoized reads racing later mutations; never delivered). */
    uint64_t hedgeReplayMismatches = 0;

    // ---- Adaptive deadline-aware batching --------------------------
    /** Cohorts dispatched early by the slack test (before Full). */
    uint64_t adaptiveEarlyDispatches = 0;
    /** Forming cohorts launched to free a context for a tighter type. */
    uint64_t adaptivePreemptions = 0;
    /** Sheds triggered by deadline-aware admission control. */
    uint64_t adaptiveAdmissionSheds = 0;
    /** Responses delivered within their per-type deadline. */
    uint64_t typedDeadlineHits = 0;
    /** Responses late/failed/shed against their per-type deadline. */
    uint64_t typedDeadlineMisses = 0;

    // ---- Sub-warp packing / cohort fusion (DESIGN.md Section 6j) ---
    /** Fused launches (each covering two or more cohorts). */
    uint64_t fusedLaunches = 0;
    /** Cohorts that rode a fused launch. */
    uint64_t fusedCohorts = 0;
    /** Warps saved by packing versus padding each cohort separately,
     *  summed over pipeline stages. */
    uint64_t fusionSavedWarps = 0;
    /** Inactive tail lanes of process-stage launches (executed-lane
     *  granularity, summed over stages) — the occupancy padding loses. */
    uint64_t paddedLanes = 0;
};

/**
 * The Rhythm server.
 *
 * Drive it either by push (injectRequest + EventQueue::run) or by pull
 * (setSource + start, the paper's idealized pre-generated request
 * stream).
 */
class RhythmServer
{
  public:
    /** Pulls the next raw request; nullopt when the stream is drained. */
    using Source = std::function<std::optional<std::string>()>;
    /**
     * Invoked per completed response (executed lanes carry content).
     * The response is a zero-copy view into the cohort's buffer slot,
     * valid only for the duration of the callback — copy it if it must
     * outlive the call.
     */
    using ResponseCallback = std::function<void(
        uint64_t client_id, std::string_view response,
        des::Time latency)>;

    /**
     * @param queue Event queue (simulated time).
     * @param device The accelerator the cohorts execute on.
     * @param service The application being served (not owned).
     * @param config Pipeline configuration.
     */
    RhythmServer(des::EventQueue &queue, simt::Device &device,
                 Service &service, const RhythmConfig &config);
    ~RhythmServer();

    RhythmServer(const RhythmServer &) = delete;
    RhythmServer &operator=(const RhythmServer &) = delete;

    /** The device session array (pre-populate for isolation runs). */
    SessionArray &sessions() { return *sessions_; }

    /**
     * Registers the static-content store (not owned). Image requests
     * are then grouped into image cohorts that bypass the process stage
     * (Section 5.1); without a store they 404.
     */
    void setStaticContent(const specweb::StaticContent *content);

    /** Registers the per-response callback. */
    void setResponseCallback(ResponseCallback cb);

    /**
     * Installs a fault plan (not owned; nullptr disarms). The server
     * consults it for backend failure/slowdown and client disconnects;
     * device-level sites (PCIe, stream stalls) are installed separately
     * with fault::installDeviceFaults.
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /** Installs a pull source and begins pumping requests. */
    void start(Source source);

    /**
     * Pushes one request into the reader.
     *
     * Push-mode contract: `true` means the server took ownership and
     * will answer the request exactly once through the response
     * callback — possibly with an immediate 503 if the load shedder is
     * active. `false` means the reader's double buffer is full (a
     * structural stall, counted in RhythmStats::readerDrops); the
     * request was NOT accepted and the caller must either retry after
     * running the event loop (closed-loop clients) or treat the
     * request as dropped (open-loop clients).
     */
    bool injectRequest(std::string raw, uint64_t client_id);

    /** Launches any partially formed batches/cohorts immediately. */
    void flush();

    /** True when no request is anywhere in the pipeline. */
    bool drained() const;

    /** Statistics so far. */
    const RhythmStats &stats() const { return stats_; }

    /** The configuration. */
    const RhythmConfig &config() const { return config_; }

    /** The service this server runs. */
    Service &service() const { return service_; }

    /**
     * Device memory footprint of the preallocated pools (Section 6.3):
     * session array + per-context request/response/backend buffers.
     */
    uint64_t memoryFootprintBytes() const;

    /**
     * Dispatch route visits so far: one per routing attempt, so a
     * request blocked on a busy context counts again when it is retried.
     * A host-side work count, not a simulated quantity: it is in no
     * report, and tests gate visits per request.
     */
    uint64_t routeVisits() const { return routeVisits_; }

  private:
    struct RawEntry
    {
        std::string raw;
        uint64_t clientId;
        des::Time arrival;
    };

    struct ReaderBatch
    {
        std::vector<RawEntry> entries;
        des::Time firstArrival = 0;
    };

    void pump();
    /** Backlog of requests waiting for a cohort to launch. */
    uint64_t formationBacklog() const;
    /** Evaluates the load shedder and tracks degraded-mode time. */
    bool sheddingActive();
    /** Sheds one request with an immediate 503. */
    void shedRequest(uint64_t client_id);
    /** Post-acceptance bookkeeping (client-disconnect injection). */
    void noteAccepted(uint64_t client_id);
    void maybeLaunchBatch(bool force);
    void parseBatch(std::unique_ptr<ReaderBatch> batch, uint64_t seq);
    /** Batch-order hand-off: queues out-of-order parse completions and
     *  dispatches in-order ones (the overlap determinism contract). */
    void parsedReady(uint64_t seq, std::vector<CohortEntry> parsed);
    /** Resolves @p entry's route and appends it to its dispatch FIFO. */
    void queueForDispatch(CohortEntry entry);
    /**
     * One dispatch pass: routes the lowest-sequence head among the
     * FIFOs whose type has not blocked in this pass, until none is left.
     */
    void drainDispatch();
    /** routeEntry outcome: Blocked means the caller keeps the entry. */
    enum class RouteResult : uint8_t { Consumed, Blocked };
    RouteResult routeEntry(CohortEntry &entry);
    bool serveOnHost(CohortEntry &entry);
    void launchImageCohort();
    // Forward decls for the launch-path signatures below; defined with
    // the pipeline-execution block in server.cc.
    struct CohortRun;
    struct LaunchMember;
    /** Launches one cohort as a group of one (DESIGN.md 6j). */
    void launchCohort(CohortContext &ctx);
    /**
     * Launches a set of cohorts collected at one scan instant. With
     * fusion off (or a single cohort) this is a launchCohort() loop in
     * collection order. With fusion on, every cohort is begun first, in
     * collection order; similarity-compatible ones are then greedily
     * grouped (collection order, so the grouping is deterministic) and
     * each group launches as one.
     */
    void launchCohortGroup(const std::vector<CohortContext *> &ctxs);
    /** Fusion admission test for adding @p next to @p group: equal
     *  stage counts, a genuine warp saving, pair similarity at or
     *  above the threshold against every member, group-size cap. */
    bool canFuse(const std::vector<LaunchMember> &group,
                 const LaunchMember &next) const;
    void scheduleTimeoutScan();
    void completeRequest(uint64_t client_id, std::string_view response,
                         des::Time latency, bool failed,
                         uint32_t route_type = CohortEntry::kTypeUnresolved);
    /** Deadline for @p type (kTypeUnresolved → defaultDeadline). */
    des::Time typeDeadline(uint32_t type) const;
    /**
     * Safety-scaled pipeline-cost estimate for a cohort of @p type:
     * the per-type EWMA when seeded, else the aggregate EWMA, else a
     * prior of cohortTimeout (1 ms when the timeout is off).
     */
    des::Time costEstimate(uint32_t type) const;
    /** Admission test: backlog drain time exceeds tightest deadline. */
    bool adaptiveOverloaded() const;
    /** Launches the oldest forming cohort of a slacker type to free a
     *  context for @p type (structural-hazard preemption). */
    void preemptForType(uint32_t type);

    // Pipeline execution (host-side eager run producing stage profiles).
    // CohortRun carries one launch's command sequence and delivery
    // state; LaunchMember one member cohort of a launch: its context,
    // its run and the host-execution products (stage traces + backend
    // bookkeeping) handed from executeCohortHost to buildCommands.
    /** Begins one member cohort: launch bookkeeping (adaptive EWMA
     *  feed, markBusy, stats, dispatch span), then host execution
     *  recording into trace slot @p slot (its place in the launch). */
    LaunchMember beginCohort(CohortContext &ctx, uint32_t slot);
    /**
     * Launches k ≥ 1 begun members as one command sequence on the
     * first member's run (the leader): builds the sequence, hands the
     * followers and their recorded backend calls to the leader, draws
     * the hang fault and enqueues. For k = 1 there are no followers.
     */
    void launchMembers(std::span<LaunchMember> members);
    /** Runs the handler stages on the host, stage-major: fills the
     *  cohort buffer, responses and failure flags, records stage traces
     *  into @p m's trace slot. */
    void executeCohortHost(LaunchMember &m);
    /**
     * Profiles the members' concatenated lanes (each member's lanes
     * contiguous, in member order) and builds the shared command
     * sequence on the leader run. A group of one keeps its plain
     * `<type>-stage<s>` kernel names and untagged profile-cache keys
     * and leaves the fused-launch statistics untouched; k ≥ 2 names
     * the kernels after every member, tags each lane with its type and
     * counts the fused launch.
     */
    void buildCommands(std::span<LaunchMember> members);
    void enqueueCohortPipeline(CohortContext &ctx,
                               std::shared_ptr<CohortRun> run);
    /** Steps one execution (primary or hedge) of a run on a stream. */
    void startCohortExec(CohortContext &ctx,
                         std::shared_ptr<CohortRun> run, int stream,
                         bool hedge);
    /** First-completion-wins delivery guard for primary and hedge. */
    void execCompleted(CohortContext &ctx,
                       const std::shared_ptr<CohortRun> &run, bool hedge);
    /** Watchdog expiry: launch the hedged re-execution of a run. */
    void hedgeCohort(CohortContext &ctx,
                     const std::shared_ptr<CohortRun> &run);
    /** Consults fault::Site::KernelHang; on fire, prepends a hang
     *  stall to @p run's primary or hedge command sequence. */
    void maybeInjectHang(CohortRun &run, bool hedge);
    void cohortCompleted(CohortContext &ctx,
                         const std::shared_ptr<CohortRun> &run);
    /** Delivers one cohort's responses and releases its context and
     *  buffer (cohortCompleted runs this for the leader, then for
     *  every fused follower). */
    void deliverRun(CohortContext &ctx, CohortRun &run, des::Time now);

    des::EventQueue &queue_;
    simt::Device &device_;
    Service &service_;
    RhythmConfig config_;

    std::unique_ptr<SessionArray> sessions_;
    CohortPool pool_;

    Source source_;
    ResponseCallback responseCb_;

    std::unique_ptr<ReaderBatch> forming_;
    /** Parser batches in flight (limit 1; 2 with overlapPipeline). */
    uint32_t parserInFlight_ = 0;
    /** True when no further parser batch may launch right now. */
    bool parserSaturated() const
    {
        return parserInFlight_ >= (config_.overlapPipeline ? 2u : 1u);
    }
    /** Next parse sequence number to assign / to dispatch. */
    uint64_t parseSeqNext_ = 0;
    uint64_t parseDispatchNext_ = 0;
    /** Parse completions waiting for their turn (batch order). */
    std::map<uint64_t, std::vector<CohortEntry>> parsedReorder_;
    uint64_t inflightRequests_ = 0;
    uint64_t nextClientId_ = 1;
    /**
     * Entries waiting for dispatch: one FIFO per cohort type, then one
     * for entries that never block (static content, host fallback and
     * 404). The vector is sized once at construction and a deque never
     * moves its elements, so a push during a pass leaves the entry
     * being routed in place.
     */
    std::vector<std::deque<CohortEntry>> routeQueues_;
    /** Sequence number of the next entry queued for dispatch. */
    uint64_t routeSeqNext_ = 0;
    uint64_t routeVisits_ = 0;
    bool drainActive_ = false;
    /**
     * Per-dispatch-pass structural-hazard memo, indexed by type id:
     * set when acquireFor fails for the type, which then sits out the
     * rest of the pass (see drainDispatch).
     */
    std::vector<uint8_t> typeBlocked_;
    std::vector<CohortEntry> pendingImages_;
    const specweb::StaticContent *staticContent_ = nullptr;

    std::vector<int> cohortStreams_; //!< Stream per cohort context.
    /** Hedge stream per context (created only with the watchdog on). */
    std::vector<int> hedgeStreams_;
    int parserStream_ = -1;
    /** Second parser stream (overlapPipeline only; batches alternate
     *  streams so chain k+1 is independent of chain k on the device).
     *  Created after the hedge streams, keeping the default stream-id
     *  layout identical. */
    int parserStream2_ = -1;
    /** Monotonic cohort launch counter; seeds idempotency tokens. */
    uint64_t cohortSeq_ = 0;

    bool timeoutScanScheduled_ = false;

    /**
     * Per-call host scratch. A parseBatch call, or one launch
     * (launchCohort, or launchCohortGroup with fusion), runs inside one
     * DES event and is done with its scratch when it returns, so each
     * piece has one fixed slot: the parser's lane traces, one trace
     * vector per [launch member][stage], and the handler contexts.
     * Slots only grow, so their heap capacity carries over from cohort
     * to cohort; each use overwrites or scrubs the lanes it uses. The
     * busy flags assert that no call re-enters its scratch.
     */
    std::vector<simt::ThreadTrace> parseTraces_;
    std::vector<std::vector<std::vector<simt::ThreadTrace>>> memberTraces_;
    std::vector<specweb::HandlerContext> handlerCtxs_;
    bool parseBusy_ = false;
    bool launchBusy_ = false;

    /**
     * Per-shape cohort buffers. Each is owned by its in-flight
     * CohortRun (responses are zero-copy views into the buffer) and
     * returned to the per-shape free list after delivery; with multiple
     * cohorts in flight each holds a distinct buffer.
     */
    std::unique_ptr<CohortBuffer>
    acquireBuffer(const CohortBufferConfig &cfg);
    void releaseBuffer(std::unique_ptr<CohortBuffer> buffer);
    std::map<std::pair<uint32_t, uint32_t>,
             std::vector<std::unique_ptr<CohortBuffer>>>
        bufferPool_;
    /**
     * Parser trace templates keyed by the exact raw request, recorded
     * at base address 0 and rebased per lane on replay. Bounded by
     * RhythmConfig::traceTemplateCacheEntries (empty when 0).
     */
    std::unordered_map<std::string, simt::ThreadTrace> parserTemplates_;

    fault::FaultPlan *faultPlan_ = nullptr;
    /** Clients that disconnected while their request was in flight. */
    std::unordered_set<uint64_t> disconnected_;
    WindowedPercentile sloLatencyMs_;
    bool degraded_ = false;
    des::Time degradedSince_ = 0;

    // ---- Adaptive deadline-aware batching (DESIGN.md Section 6i) ---
    /** True when any per-type deadline accounting is active. */
    bool deadlinesTracked_ = false;
    /** Tightest deadline across all types (slack test reference). */
    des::Time minDeadline_ = 0;
    /** Per-type pipeline-time EWMAs, ms (sized when adaptive). */
    std::vector<Ewma> typeCostMs_;
    /** Aggregate pipeline-time EWMA, ms (cold-start fallback). */
    Ewma aggCostMs_;
    /** Inter-launch gap EWMA, ms (measured service-rate numerator's
     *  denominator; fed on every typed cohort launch when adaptive). */
    Ewma launchGapMs_;
    /** Entries-per-launch EWMA (measured service-rate numerator). */
    Ewma launchSizeAvg_;
    /** Timestamp of the previous typed cohort launch (0 = none yet). */
    des::Time lastLaunch_ = 0;

    // ---- Sub-warp packing / cohort fusion (DESIGN.md Section 6j) ---
    /** Online per-type control-flow fingerprints (fusion on only). */
    std::unique_ptr<analysis::FingerprintTracker> fingerprints_;

    RhythmStats stats_;
};

} // namespace rhythm::core

#endif // RHYTHM_RHYTHM_SERVER_HH
