#include "rhythm/server.hh"

#include <algorithm>

#include "backend/protocol.hh"
#include "http/parser.hh"

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace rhythm::core {
namespace {

/** Simulated device address of the raw request buffer region. */
constexpr uint64_t kRequestRegionBase = 0x9000'0000;

/** 503 for requests rejected by the load shedder. */
constexpr const char *kShedResponse =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Retry-After: 1\r\n"
    "Content-Length: 0\r\n\r\n";

/** 503 for lanes whose backend calls exhausted the retry budget. */
constexpr const char *kBackendUnavailableResponse =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Length: 0\r\n\r\n";

/** Latency samples required before the p99 shedder may trip. */
constexpr uint64_t kMinSloSamples = 64;

/** Instruction weight per thread of a transpose kernel element loop. */
constexpr uint32_t kTransposeInstsPerThread = 96;

/** Idempotency-token slot widths: token = ((cohort launch ordinal ×
 *  stage slots + stage) × lane slots + lane) + 1, so tokens are unique
 *  per logical backend call and stable across retries and hedges. */
constexpr uint64_t kTokenStageSlots = 64;
constexpr uint64_t kTokenLaneSlots = 65536;

simt::NullTracer gNull;

/** Holds a scratch slot's busy flag for one call; asserts no re-entry. */
class ScratchUse
{
  public:
    explicit ScratchUse(bool &busy) : busy_(busy)
    {
        RHYTHM_ASSERT(!busy_, "host scratch re-entered");
        busy_ = true;
    }
    ~ScratchUse() { busy_ = false; }
    ScratchUse(const ScratchUse &) = delete;
    ScratchUse &operator=(const ScratchUse &) = delete;

  private:
    bool &busy_;
};

/** Scales a kernel profile's totals by a sampling factor. */
simt::KernelProfile
scaleProfile(simt::KernelProfile profile, double factor)
{
    if (factor == 1.0)
        return profile;
    auto scale = [&](uint64_t &v) {
        v = static_cast<uint64_t>(static_cast<double>(v) * factor + 0.5);
    };
    scale(profile.totals.issueSlots);
    scale(profile.totals.laneInstructions);
    scale(profile.totals.steps);
    scale(profile.totals.laneBlockExecs);
    scale(profile.totals.activeLaneSteps);
    scale(profile.totals.globalTransactions);
    scale(profile.totals.globalBytes);
    scale(profile.totals.sharedAccesses);
    scale(profile.totals.sharedReplaySlots);
    scale(profile.totals.constantAccesses);
    scale(profile.warps);
    scale(profile.threads);
    return profile;
}

} // namespace

/** Host-side precomputation of one cohort's pipeline execution. */
struct RhythmServer::CohortRun
{
    /** One simulated pipeline step on the cohort's stream. */
    struct Cmd
    {
        enum class Kind { Kernel, CopyToHost, CopyToDevice, HostDelay };
        Kind kind = Kind::Kernel;
        simt::KernelCost cost;
        uint64_t bytes = 0;
        des::Time delay = 0;
        /** Injected kernel hang (excised from hedge sequences). */
        bool hang = false;
    };

    /** One logical backend call, recorded for hedge replay. */
    struct BackendCall
    {
        uint64_t token = 0;
        std::string request;
        std::string response;
    };

    std::vector<Cmd> sequence;
    /** Launch ordinal (seeds this cohort's idempotency tokens). */
    uint64_t seq = 0;
    /** Simulated time the cohort entered the pipeline. */
    des::Time launchedAt = 0;
    /**
     * The cohort's response buffer, owned for the lifetime of the run:
     * the responses below are zero-copy views into its lane slots.
     * Returned to the server's per-shape pool after delivery.
     */
    std::unique_ptr<CohortBuffer> buffer;
    /** Responses of executed lanes (views into `buffer` or literals). */
    std::vector<std::string_view> responses;
    /** Per-lane failure flags (uint8_t: lanes write concurrently). */
    std::vector<uint8_t> failed;
    uint32_t executedLanes = 0;
    double scale = 1.0;
    uint64_t responseContentBytes = 0; //!< Scaled to the full cohort.
    uint64_t paddingBytes = 0;
    size_t nextCmd = 0;
    /** Index of the first response-path command (tracing: where the
     *  process stage ends and the response stage begins). */
    size_t responseBeginIdx = 0;
    bool processClosed = false;  //!< Process span already emitted.
    des::Time responseStart = 0; //!< Response-stage span start.

    // ---- Watchdog / hedged execution -------------------------------
    /** Responses delivered (first-completion-wins guard tripped). */
    bool delivered = false;
    /** A hedged re-execution is (or was) in flight. */
    bool hedged = false;
    /** Pending watchdog timer; disarmed (cancelled) on delivery so an
     *  idle timer never extends the simulated run. */
    des::EventId watchdogEvent;
    bool watchdogArmed = false;
    /** Successful backend round trips, recorded only when the watchdog
     *  is armed so a hedge can replay them through the idempotency
     *  filter. */
    std::vector<BackendCall> backendCalls;
    /** Hedge command sequence (primary's minus injected hangs). */
    std::vector<Cmd> hedgeSequence;
    size_t hedgeNextCmd = 0;

    // ---- Cohort fusion (DESIGN.md Section 6j) ----------------------
    /** One follower cohort riding this (leader) run's fused launch:
     *  its own buffer/responses/failure flags live in its run, but the
     *  command sequence, watchdog and hang injection are the leader's. */
    struct Follower
    {
        CohortContext *ctx = nullptr;
        std::shared_ptr<CohortRun> run;
    };
    std::vector<Follower> followers;
};

/**
 * One member cohort of a launch: its context and run, plus the
 * host-execution products that command building consumes.
 */
struct RhythmServer::LaunchMember
{
    CohortContext *ctx = nullptr;
    std::shared_ptr<CohortRun> run;
    uint32_t type = 0;
    uint32_t n = 0;      //!< Cohort entries (before lane sampling).
    uint32_t sample = 0; //!< Executed lanes.
    int stages = 0;
    uint32_t laneBytes = 0;
    /** Its place in the launch: recorded traces live in
     *  memberTraces_[slot], [stage][lane], until the launch returns. */
    uint32_t slot = 0;
    uint64_t backendInsts = 0;
    uint64_t backendCalls = 0;
    /** Worst per-lane retry attempts per stage (backoff rounds). */
    std::vector<uint32_t> retryRounds;
    /** Total retried calls per stage (retry service time). */
    std::vector<uint64_t> retriedCalls;
};

RhythmServer::RhythmServer(des::EventQueue &queue, simt::Device &device,
                           Service &service, const RhythmConfig &config)
    : queue_(queue), device_(device), service_(service), config_(config),
      pool_(config.cohortContexts, config.cohortSize),
      sloLatencyMs_(std::max<uint32_t>(config.sloWindow, 1))
{
    RHYTHM_ASSERT(config_.cohortSize > 0);
    sessions_ = std::make_unique<SessionArray>(
        config_.cohortSize, config_.sessionNodesPerBucket);
    parserStream_ = device_.createStream();
    cohortStreams_.reserve(config_.cohortContexts);
    for (uint32_t i = 0; i < config_.cohortContexts; ++i)
        cohortStreams_.push_back(device_.createStream());
    if (config_.watchdogTimeout > 0) {
        // Hedges ride their own streams so a wedged primary cannot
        // serialize its own rescue. Created only when the watchdog is
        // armed: the default stream layout stays identical.
        hedgeStreams_.reserve(config_.cohortContexts);
        for (uint32_t i = 0; i < config_.cohortContexts; ++i)
            hedgeStreams_.push_back(device_.createStream());
    }
    if (config_.overlapPipeline)
        parserStream2_ = device_.createStream();
    routeQueues_.resize(service_.numTypes() + 1);
    typeBlocked_.assign(service_.numTypes(), 0);
    // Deadline accounting is active whenever adaptive batching is on
    // or any per-type deadline was configured (fixed-mode runs then
    // report comparable attainment without any scheduling change).
    bool any_typed = false;
    for (des::Time d : config_.typeDeadlines)
        any_typed = any_typed || d != 0;
    deadlinesTracked_ = config_.adaptiveBatching || any_typed;
    if (deadlinesTracked_) {
        minDeadline_ = config_.defaultDeadline;
        for (uint32_t t = 0; t < service_.numTypes(); ++t)
            minDeadline_ = std::min(minDeadline_, typeDeadline(t));
    }
    if (config_.adaptiveBatching)
        typeCostMs_.resize(service_.numTypes());
    if (config_.fusionEnabled)
        fingerprints_ = std::make_unique<analysis::FingerprintTracker>(
            service_.numTypes(), config_.fingerprint);
}

RhythmServer::~RhythmServer() = default;

void
RhythmServer::setResponseCallback(ResponseCallback cb)
{
    responseCb_ = std::move(cb);
}

void
RhythmServer::setFaultPlan(fault::FaultPlan *plan)
{
    faultPlan_ = plan;
}

void
RhythmServer::start(Source source)
{
    source_ = std::move(source);
    pump();
}

bool
RhythmServer::injectRequest(std::string raw, uint64_t client_id)
{
    if (forming_ && forming_->entries.size() >= config_.cohortSize &&
        parserSaturated()) {
        ++stats_.readerDrops;
        OBS_COUNTER_ADD("server.reader_drops", 1);
        return false; // reader stall: both buffers occupied
    }
    if (sheddingActive()) {
        shedRequest(client_id);
        return true; // consumed: answered with an immediate 503
    }
    if (!forming_)
        forming_ = std::make_unique<ReaderBatch>();
    if (forming_->entries.empty()) {
        forming_->firstArrival = queue_.now();
        scheduleTimeoutScan();
    }
    forming_->entries.push_back(
        RawEntry{std::move(raw), client_id, queue_.now()});
    ++stats_.requestsAccepted;
    OBS_COUNTER_ADD("server.requests_accepted", 1);
    ++inflightRequests_;
    noteAccepted(client_id);
    maybeLaunchBatch(false);
    return true;
}

uint64_t
RhythmServer::formationBacklog() const
{
    uint64_t backlog = forming_ ? forming_->entries.size() : 0;
    for (const std::deque<CohortEntry> &fifo : routeQueues_)
        backlog += fifo.size();
    backlog += pendingImages_.size();
    for (const CohortContext &ctx : pool_.contexts()) {
        if (ctx.state() == CohortState::PartiallyFull ||
            ctx.state() == CohortState::Full)
            backlog += ctx.entries().size();
    }
    return backlog;
}

bool
RhythmServer::sheddingActive()
{
    bool shed = false;
    if (config_.shedBacklogLimit &&
        formationBacklog() >= config_.shedBacklogLimit)
        shed = true;
    if (!shed && config_.shedLatencySlo &&
        sloLatencyMs_.totalCount() >= kMinSloSamples &&
        sloLatencyMs_.percentile(99.0) >
            des::toMillis(config_.shedLatencySlo))
        shed = true;
    if (!shed && config_.adaptiveBatching && config_.adaptiveAdmission &&
        adaptiveOverloaded()) {
        // Deadline-aware admission: the backlog already needs longer to
        // drain than the tightest deadline allows, so an accepted
        // request is doomed — shed it now while the 503 is cheap.
        shed = true;
        ++stats_.adaptiveAdmissionSheds;
        OBS_COUNTER_ADD("adaptive.admission_sheds", 1);
    }
    // Accumulate degraded time incrementally (not only on the
    // degraded->healthy edge) so an interval still open when the run
    // ends is visible in the stats.
    if (degraded_) {
        stats_.degradedTime += queue_.now() - degradedSince_;
        degradedSince_ = queue_.now();
    } else if (shed) {
        degradedSince_ = queue_.now();
    }
    if (shed != degraded_)
        OBS_INSTANT(obs::track::kEvents,
                    shed ? "degraded-enter" : "degraded-exit",
                    "degradation");
    degraded_ = shed;
    return shed;
}

void
RhythmServer::shedRequest(uint64_t client_id)
{
    ++stats_.requestsAccepted;
    ++stats_.requestsShed;
    if (deadlinesTracked_)
        ++stats_.typedDeadlineMisses; // a shed request never attains
    OBS_COUNTER_ADD("server.requests_shed", 1);
    OBS_INSTANT(obs::track::kEvents, "shed", "degradation",
                {"client", client_id});
    if (responseCb_)
        responseCb_(client_id, kShedResponse, 0);
}

des::Time
RhythmServer::typeDeadline(uint32_t type) const
{
    if (type < config_.typeDeadlines.size() &&
        config_.typeDeadlines[type] != 0)
        return config_.typeDeadlines[type];
    return config_.defaultDeadline;
}

des::Time
RhythmServer::costEstimate(uint32_t type) const
{
    // Per-type EWMA when seeded, aggregate EWMA as the warm fallback,
    // and a prior before any cohort completed: the formation timeout
    // (what fixed mode would risk), or 1 ms with the timeout off.
    double ms = 0.0;
    if (type != CohortEntry::kTypeUnresolved &&
        type < typeCostMs_.size() && !typeCostMs_[type].empty())
        ms = typeCostMs_[type].value();
    else if (!aggCostMs_.empty())
        ms = aggCostMs_.value();
    else
        ms = config_.cohortTimeout
                 ? des::toMillis(config_.cohortTimeout)
                 : 1.0;
    ms *= config_.slackSafety;
    return static_cast<des::Time>(ms * des::kMillisecond);
}

bool
RhythmServer::adaptiveOverloaded() const
{
    // Until the launch-rate model has a few samples there is no
    // defensible drain estimate; admit everything and let the backlog
    // shedder govern. The threshold of 8 launches rides out cold-start
    // noise without delaying flash response by more than a few ms.
    if (config_.defaultDeadline == 0 || launchGapMs_.count() < 8 ||
        launchSizeAvg_.empty() || aggCostMs_.empty())
        return false;
    // Measured drain model: entries-per-launch over inter-launch gap is
    // the service rate the whole funnel actually achieves — parser-,
    // host- or device-bound, whichever binds (the configured cohort
    // geometry wildly overestimates it). The 2x margin matters: mean
    // sojourn sits near the deadline even at healthy load (formation
    // timeouts put the tail astride it), so a tight threshold sheds
    // requests that would mostly have hit. Admission is only for
    // queues no formation policy could serve — a flash crowd's excess
    // — where the backlog drain alone already dwarfs the deadline.
    const double gap_s = std::max(launchGapMs_.value() / 1e3, 1e-9);
    const double rate = std::max(launchSizeAvg_.value(), 1.0) / gap_s;
    const double drain_s =
        static_cast<double>(formationBacklog()) / rate;
    return drain_s > 2.0 * des::toSeconds(config_.defaultDeadline);
}

void
RhythmServer::preemptForType(uint32_t type)
{
    // A tight-deadline type found every context occupied. Launch the
    // oldest forming cohort of a slacker type early so the freed
    // context (after delivery) can host the interactive type. Busy
    // contexts are already on the device and cannot be reclaimed.
    // Same work-conserving rule as the slack dispatcher: launching a
    // partial victim onto a loaded device costs capacity, so only
    // preempt while the device has headroom.
    uint32_t busy = 0;
    for (const CohortContext &c : pool_.contexts())
        if (c.state() == CohortState::Busy)
            ++busy;
    if (busy * 2 >= config_.cohortContexts)
        return;
    const des::Time deadline = typeDeadline(type);
    CohortContext *victim = pool_.oldestPartiallyFull(
        [&](const CohortContext &ctx) {
            return ctx.type() != type &&
                   typeDeadline(ctx.type()) > deadline;
        });
    if (!victim)
        return;
    ++stats_.adaptivePreemptions;
    OBS_COUNTER_ADD("adaptive.preemptions", 1);
    OBS_INSTANT(obs::track::kEvents, "adaptive-preempt", "adaptive",
                {"victim_type",
                 std::string(service_.typeName(victim->type()))},
                {"for_type", std::string(service_.typeName(type))});
    launchCohort(*victim);
}

void
RhythmServer::noteAccepted(uint64_t client_id)
{
    if (faultPlan_ &&
        faultPlan_->at(fault::Site::ClientDisconnect, queue_.now())
            .fire) {
        ++stats_.faultsInjected;
        OBS_INSTANT(obs::track::kEvents, "client-disconnect", "fault",
                    {"client", client_id});
        disconnected_.insert(client_id);
    }
}

void
RhythmServer::pump()
{
    if (!source_)
        return;
    for (;;) {
        if (forming_ && forming_->entries.size() >= config_.cohortSize) {
            maybeLaunchBatch(false);
            if (forming_ && forming_->entries.size() >= config_.cohortSize)
                return; // parser busy: reader stalls on the back buffer
            continue;
        }
        std::optional<std::string> raw = source_();
        if (!raw) {
            source_ = nullptr;
            maybeLaunchBatch(true);
            return;
        }
        const uint64_t client_id = nextClientId_++;
        if (sheddingActive()) {
            shedRequest(client_id);
            continue;
        }
        if (!forming_)
            forming_ = std::make_unique<ReaderBatch>();
        if (forming_->entries.empty())
            forming_->firstArrival = queue_.now();
        forming_->entries.push_back(
            RawEntry{std::move(*raw), client_id, queue_.now()});
        ++stats_.requestsAccepted;
        OBS_COUNTER_ADD("server.requests_accepted", 1);
        ++inflightRequests_;
        noteAccepted(client_id);
    }
}

void
RhythmServer::maybeLaunchBatch(bool force)
{
    if (parserSaturated() || !forming_ || forming_->entries.empty())
        return;
    if (!force && forming_->entries.size() < config_.cohortSize)
        return;
    std::unique_ptr<ReaderBatch> batch = std::move(forming_);
    ++parserInFlight_;
    parseBatch(std::move(batch), parseSeqNext_++);
}

void
RhythmServer::parseBatch(std::unique_ptr<ReaderBatch> batch, uint64_t seq)
{
    ++stats_.parserBatches;
    const uint32_t n = static_cast<uint32_t>(batch->entries.size());
    const uint32_t sample =
        config_.laneSample == 0 ? n : std::min(n, config_.laneSample);
    // The reader stage for this batch spans from its first arrival to
    // the hand-off to the parser (now).
    OBS_SPAN_COMPLETE(obs::track::kReader, "reader", "stage",
                      batch->firstArrival, queue_.now(),
                      {"requests", static_cast<uint64_t>(n)});
    const des::Time parse_start = queue_.now();

    // Scissored upload (overlapPipeline): ship the bytes the requests
    // actually occupy in their slots instead of the full slot array.
    // Must be summed here — the raw strings move into the parsed
    // entries below.
    uint64_t upload_bytes =
        static_cast<uint64_t>(n) * config_.requestSlotBytes;
    if (config_.overlapPipeline && config_.networkOverPcie) {
        uint64_t occupied = 0;
        for (const RawEntry &e : batch->entries)
            occupied += std::min<uint64_t>(e.raw.size(),
                                           config_.requestSlotBytes);
        upload_bytes = occupied;
    }

    // Parse every request (dispatch needs the results); record traces
    // for the sampled lanes to cost the parser kernel. Each lane
    // touches only its own entry and trace slot, so the loop fans out
    // over the sim pool; results are index-addressed and order-free.
    //
    // One recording path: a sampled lane records its trace at base
    // address 0 into its slot, then one in-place pass
    // (rebaseRegionTrace) moves it to the lane's request slot, mapping
    // in-slot loads straight into the transposed layout when active.
    // The trace is an affine function of the base address, so with the
    // template cache on (traceTemplateCacheEntries > 0) a raw request
    // seen before copies its base-0 template instead of recording, and
    // a miss copies its recording as a new template. The shared map is
    // consulted serially before the fork (hit pointers are stable: the
    // map is node-based and never erased from) and grown serially after
    // the join, in canonical lane order.
    ScratchUse scratch(parseBusy_);
    auto parsed = std::make_shared<std::vector<CohortEntry>>();
    parsed->resize(n);
    if (parseTraces_.size() < sample)
        parseTraces_.resize(sample);
    const uint32_t tmpl_cap = config_.traceTemplateCacheEntries;
    std::vector<const simt::ThreadTrace *> hit_tmpl(sample, nullptr);
    std::vector<simt::ThreadTrace> fresh_tmpl(tmpl_cap > 0 ? sample : 0);
    for (uint32_t i = 0; tmpl_cap > 0 && i < sample; ++i) {
        auto it = parserTemplates_.find(batch->entries[i].raw);
        if (it != parserTemplates_.end())
            hit_tmpl[i] = &it->second;
    }
    util::simPool().parallelRanges(
        n, 64,
        [this, &batch, &parsed, &hit_tmpl, &fresh_tmpl, tmpl_cap,
         sample](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                RawEntry &raw = batch->entries[i];
                CohortEntry &entry = (*parsed)[i];
                entry.raw = std::move(raw.raw);
                entry.arrival = raw.arrival;
                entry.clientId = raw.clientId;
                bool ok;
                if (i >= sample) {
                    ok = http::parseRequest(entry.raw, 0, gNull,
                                            entry.request);
                } else if (hit_tmpl[i]) {
                    ok = http::parseRequest(entry.raw, 0, gNull,
                                            entry.request);
                    parseTraces_[i] = *hit_tmpl[i];
                } else {
                    simt::RecordingTracer rec(parseTraces_[i]);
                    ok = http::parseRequest(entry.raw, 0, rec,
                                            entry.request);
                    if (tmpl_cap > 0)
                        fresh_tmpl[i] = parseTraces_[i];
                }
                if (i < sample)
                    rebaseRegionTrace(parseTraces_[i], kRequestRegionBase,
                                      static_cast<uint32_t>(i),
                                      config_.requestSlotBytes, sample,
                                      config_.transposeBuffers);
                if (!ok)
                    entry.request.path.clear(); // dispatch will 400 it
            }
        });
    for (uint32_t i = 0; tmpl_cap > 0 && i < sample; ++i) {
        if (hit_tmpl[i] || parserTemplates_.size() >= tmpl_cap)
            continue;
        parserTemplates_.try_emplace((*parsed)[i].raw,
                                     std::move(fresh_tmpl[i]));
    }

    std::vector<const simt::ThreadTrace *> ptrs;
    ptrs.reserve(sample);
    for (uint32_t i = 0; i < sample; ++i)
        ptrs.push_back(&parseTraces_[i]);
    const double scale = static_cast<double>(n) / sample;
    simt::KernelProfile parser_profile = scaleProfile(
        device_.engine().profile(ptrs, config_.warpModel, "parser"),
        scale);
    const simt::KernelCost parser_cost =
        computeKernelCost(parser_profile, device_.config());

    // Device chain: [H2D copy] → [request transpose] → [parser kernel].
    // With overlapPipeline the two in-flight batches alternate parser
    // streams, so chain k+1 never serializes behind chain k's commands.
    const int pstream = (config_.overlapPipeline && (seq & 1))
                            ? parserStream2_
                            : parserStream_;
    auto after_parse = [this, parsed, parse_start, n, sample, seq]() {
        OBS_SPAN_COMPLETE(obs::track::kParser, "parse", "stage",
                          parse_start, queue_.now(),
                          {"requests", static_cast<uint64_t>(n)},
                          {"sampled_lanes", static_cast<uint64_t>(sample)});
        RHYTHM_ASSERT(parserInFlight_ > 0);
        --parserInFlight_;
        parsedReady(seq, std::move(*parsed));
        maybeLaunchBatch(false);
        pump();
    };
    auto launch_parser = [this, pstream, parser_cost, after_parse]() {
        device_.launchKernel(pstream, parser_cost, after_parse);
    };
    auto launch_transpose = [this, pstream, n, launch_parser]() {
        if (!config_.transposeBuffers) {
            launch_parser();
            return;
        }
        simt::KernelProfile tp = simt::KernelProfile::streaming(
            n, 2ull * n * config_.requestSlotBytes,
            kTransposeInstsPerThread, config_.warpModel, "req-transpose");
        device_.launchKernel(pstream,
                             computeKernelCost(tp, device_.config()),
                             launch_parser);
    };
    if (config_.networkOverPcie) {
        device_.copyToDevice(pstream, upload_bytes, launch_transpose);
    } else {
        launch_transpose();
    }
}

void
RhythmServer::parsedReady(uint64_t seq, std::vector<CohortEntry> parsed)
{
    // Parse chains on distinct streams may complete out of batch order;
    // dispatch must not. Queue completions and drain strictly in
    // sequence so cohort formation and every backend/session mutation
    // happen in the same canonical order as the serial pipeline — the
    // responses are then byte-identical with overlap on or off.
    parsedReorder_.emplace(seq, std::move(parsed));
    while (!parsedReorder_.empty() &&
           parsedReorder_.begin()->first == parseDispatchNext_) {
        std::vector<CohortEntry> next =
            std::move(parsedReorder_.begin()->second);
        parsedReorder_.erase(parsedReorder_.begin());
        ++parseDispatchNext_;
        for (CohortEntry &entry : next)
            queueForDispatch(std::move(entry));
        drainDispatch();
    }
}

void
RhythmServer::setStaticContent(const specweb::StaticContent *content)
{
    staticContent_ = content;
}

bool
RhythmServer::serveOnHost(CohortEntry &entry)
{
    // Host-fallback execution (Section 3.1): requests that do not fit
    // the data-parallel model — quick pay's variable backend loop —
    // run on the general purpose core. The simulated service time is
    // the measured instruction count over the host's execution rate.
    simt::CountingTracer counter;
    std::optional<std::string> response =
        service_.serveFallback(entry.request, *sessions_, counter);
    if (!response)
        return false;
    ++stats_.hostFallbackRequests;
    auto shared = std::make_shared<std::string>(std::move(*response));
    const des::Time service_time = des::fromSeconds(
        static_cast<double>(counter.instructions()) /
        config_.hostFallbackInstsPerSec);
    queue_.scheduleAfter(
        service_time, [this, shared, client = entry.clientId,
                       arrival = entry.arrival]() {
            completeRequest(client, *shared, queue_.now() - arrival,
                            false);
        });
    return true;
}

void
RhythmServer::launchImageCohort()
{
    if (pendingImages_.empty())
        return;
    // Image cohorts bypass the process stage entirely (Section 5.1):
    // the stored bytes go straight to the response path. With an
    // integrated NIC this costs the device nothing; on a discrete card
    // the bytes cross PCIe.
    auto entries = std::make_shared<std::vector<CohortEntry>>(
        std::move(pendingImages_));
    pendingImages_.clear();
    ++stats_.imageCohorts;

    uint64_t bytes = 0;
    auto responses = std::make_shared<std::vector<std::string>>();
    responses->reserve(entries->size());
    for (const CohortEntry &entry : *entries) {
        std::string response = staticContent_->buildResponse(
            entry.request.path);
        bytes += response.size();
        responses->push_back(std::move(response));
    }
    stats_.imageRequests += entries->size();
    stats_.imageBytes += bytes;

    auto deliver = [this, entries, responses]() {
        for (size_t i = 0; i < entries->size(); ++i) {
            completeRequest((*entries)[i].clientId, (*responses)[i],
                            queue_.now() - (*entries)[i].arrival, false);
        }
        drainDispatch();
        pump();
    };
    if (config_.networkOverPcie)
        device_.copyToHost(parserStream_, bytes, deliver);
    else
        queue_.scheduleAfter(des::kMicrosecond, deliver);
}

void
RhythmServer::queueForDispatch(CohortEntry entry)
{
    // Static content and cohort type are pure functions of the parsed
    // request, so they are resolved once here instead of on every pass
    // that finds the entry's type blocked.
    const http::Request &req = entry.request;
    uint32_t type = CohortEntry::kTypeUnresolved;
    if (staticContent_ && specweb::StaticContent::isStaticPath(req.path) &&
        staticContent_->lookup(req.path))
        type = CohortEntry::kRouteStatic;
    else if (req.path.empty() || !service_.resolveType(req, type))
        type = CohortEntry::kTypeUnresolved;
    entry.routeType = type;
    entry.routeSeq = routeSeqNext_++;
    const size_t fifo = std::min<size_t>(type, typeBlocked_.size());
    routeQueues_[fifo].push_back(std::move(entry));
}

void
RhythmServer::drainDispatch()
{
    // Guard against reentrancy: completeRequest's callback may inject
    // requests synchronously, re-entering dispatch mid-pass.
    if (drainActive_)
        return;
    drainActive_ = true;
    std::fill(typeBlocked_.begin(), typeBlocked_.end(), 0);
    // Merge the FIFO heads in arrival order. A type whose head blocks
    // sits out the rest of the pass with its entries unread, so this
    // is the order of one scan over all queued entries in arrival
    // order that skips the blocked types' entries — without reading
    // them. Entries queued mid-pass (reentrant injection) carry higher
    // sequence numbers and are merged in the same pass.
    const size_t types = typeBlocked_.size();
    for (;;) {
        std::deque<CohortEntry> *next = nullptr;
        for (size_t q = 0; q < routeQueues_.size(); ++q) {
            std::deque<CohortEntry> &fifo = routeQueues_[q];
            if (fifo.empty() || (q < types && typeBlocked_[q]))
                continue;
            if (!next || fifo.front().routeSeq < next->front().routeSeq)
                next = &fifo;
        }
        if (!next)
            break;
        if (routeEntry(next->front()) == RouteResult::Consumed)
            next->pop_front();
    }
    drainActive_ = false;
}

RhythmServer::RouteResult
RhythmServer::routeEntry(CohortEntry &entry)
{
    // Routes one dispatch-ready entry: static content, cohort type,
    // host fallback or 404. Consumes the entry unless it reports
    // Blocked (structural hazard: no cohort context for its type).
    ++routeVisits_;
    const uint32_t type = entry.routeType;
    if (type == CohortEntry::kRouteStatic) {
        const bool was_empty = pendingImages_.empty();
        pendingImages_.push_back(std::move(entry));
        if (pendingImages_.size() >= config_.cohortSize)
            launchImageCohort();
        else if (was_empty)
            scheduleTimeoutScan();
        return RouteResult::Consumed;
    }
    if (type == CohortEntry::kTypeUnresolved) {
        // Not a cohort type: try the service's host fallback (requests
        // outside the data-parallel model, Section 3.1), else 404.
        if (!entry.request.path.empty() && serveOnHost(entry))
            return RouteResult::Consumed;
        completeRequest(entry.clientId,
                        "HTTP/1.1 404 Not Found\r\n"
                        "Content-Length: 0\r\n\r\n",
                        queue_.now() - entry.arrival, true);
        return RouteResult::Consumed;
    }
    // Structural hazard: contexts only fill up or go Busy while a pass
    // runs (releases happen in later DES events), so once acquireFor
    // fails for a type it keeps failing until the pass ends, and the
    // type sits out the rest of the pass. Blocked entries keep per-type
    // FIFO order but do not head-of-line block other types — with more
    // types than contexts a strict FIFO collapses into timeout-launched
    // fragments.
    CohortContext *ctx = pool_.acquireFor(type);
    if (!ctx) {
        typeBlocked_[type] = 1;
        // Priority lane: under adaptive batching a tight-deadline type
        // may launch the oldest forming cohort of a slacker type early,
        // so the context it frees (after delivery) is available next
        // pass. The entry still reports Blocked — the launched context
        // is Busy until its responses deliver — so the structural-
        // hazard memo above stays valid for this pass.
        if (config_.adaptiveBatching)
            preemptForType(type);
        return RouteResult::Blocked;
    }
    const bool was_empty = ctx->entries().empty();
    const bool full = ctx->add(std::move(entry));
    if (was_empty)
        scheduleTimeoutScan();
    if (full)
        launchCohort(*ctx);
    return RouteResult::Consumed;
}

void
RhythmServer::scheduleTimeoutScan()
{
    if (timeoutScanScheduled_ ||
        (config_.cohortTimeout == 0 && !config_.adaptiveBatching))
        return;
    timeoutScanScheduled_ = true;
    // Fixed mode re-arms at half the formation timeout (unchanged).
    // Adaptive mode additionally bounds the period by the slack-scan
    // interval so tight deadlines are checked often enough even with a
    // long (or disabled) formation timeout.
    des::Time interval = config_.cohortTimeout / 2;
    if (config_.adaptiveBatching) {
        interval = interval ? std::min(interval,
                                       config_.adaptiveScanInterval)
                            : config_.adaptiveScanInterval;
        if (interval == 0)
            interval = 1;
    }
    queue_.scheduleAfter(interval, [this]() {
        timeoutScanScheduled_ = false;
        const des::Time now = queue_.now();
        const bool adaptive = config_.adaptiveBatching;
        const bool timed = config_.cohortTimeout != 0;
        // Slack test (DESIGN.md Section 6i): dispatch early once the
        // oldest aboard request could no longer make its deadline if
        // formation waited another scan period.
        auto out_of_slack = [&](des::Time oldest, uint32_t type,
                                des::Time deadline) {
            return adaptive &&
                   now - oldest + costEstimate(type) >= deadline;
        };
        // Early dispatch must be work-conserving: a partial launch only
        // buys latency when the stage it feeds would otherwise idle.
        // Flushing the reader into a busy parser, or a cohort onto a
        // loaded device, fragments batches and *costs* capacity — the
        // exact failure mode under a flash crowd. Saturated stages fall
        // back to the fixed-timeout path.
        uint32_t busy = 0;
        if (adaptive) {
            for (const CohortContext &c : pool_.contexts())
                if (c.state() == CohortState::Busy)
                    ++busy;
        }
        const bool parser_idle = adaptive && parserInFlight_ == 0;
        const bool device_headroom =
            adaptive && busy * 2 < config_.cohortContexts;
        bool anything_forming = false;
        if (forming_ && !forming_->entries.empty()) {
            const des::Time oldest = forming_->firstArrival;
            if (timed && now - oldest >= config_.cohortTimeout) {
                ++stats_.cohortTimeouts;
                OBS_COUNTER_ADD("server.cohort_timeouts", 1);
                maybeLaunchBatch(true);
            } else if (parser_idle &&
                       out_of_slack(oldest, CohortEntry::kTypeUnresolved,
                                    minDeadline_)) {
                ++stats_.adaptiveEarlyDispatches;
                OBS_COUNTER_ADD("adaptive.early_dispatches", 1);
                maybeLaunchBatch(true);
            } else {
                anything_forming = true;
            }
        }
        std::vector<CohortContext *> expired;
        std::vector<CohortContext *> early;
        pool_.forEachForming([&](CohortContext &ctx) {
            if (ctx.state() != CohortState::PartiallyFull) {
                anything_forming = true;
                return;
            }
            if (timed && now - ctx.firstArrival() >= config_.cohortTimeout)
                expired.push_back(&ctx);
            else if (device_headroom &&
                     out_of_slack(ctx.firstArrival(), ctx.type(),
                                  typeDeadline(ctx.type())))
                early.push_back(&ctx);
            else
                anything_forming = true;
        });
        // Attribute the launch reasons, then launch the whole instant's
        // collection as one group so fusion (when on) can pack the
        // partial cohorts that expired or ran out of slack together.
        std::vector<CohortContext *> launches;
        launches.reserve(expired.size() + early.size());
        for (CohortContext *ctx : expired) {
            ++stats_.cohortTimeouts;
            OBS_COUNTER_ADD("server.cohort_timeouts", 1);
            launches.push_back(ctx);
        }
        for (CohortContext *ctx : early) {
            ++stats_.adaptiveEarlyDispatches;
            OBS_COUNTER_ADD("adaptive.early_dispatches", 1);
            launches.push_back(ctx);
        }
        launchCohortGroup(launches);
        if (!pendingImages_.empty()) {
            const des::Time oldest = pendingImages_.front().arrival;
            if (timed && now - oldest >= config_.cohortTimeout) {
                ++stats_.cohortTimeouts;
                OBS_COUNTER_ADD("server.cohort_timeouts", 1);
                launchImageCohort();
            } else if (device_headroom &&
                       out_of_slack(oldest, CohortEntry::kTypeUnresolved,
                                    config_.defaultDeadline)) {
                ++stats_.adaptiveEarlyDispatches;
                OBS_COUNTER_ADD("adaptive.early_dispatches", 1);
                launchImageCohort();
            } else {
                anything_forming = true;
            }
        }
        if (anything_forming)
            scheduleTimeoutScan();
    });
}

void
RhythmServer::flush()
{
    maybeLaunchBatch(true);
    std::vector<CohortContext *> forming;
    pool_.forEachForming([&](CohortContext &ctx) {
        if (ctx.state() == CohortState::PartiallyFull &&
            !ctx.entries().empty())
            forming.push_back(&ctx);
    });
    launchCohortGroup(forming);
    launchImageCohort();
}

bool
RhythmServer::drained() const
{
    return inflightRequests_ == 0;
}

void
RhythmServer::completeRequest(uint64_t client_id,
                              std::string_view response,
                              des::Time latency, bool failed,
                              uint32_t route_type)
{
    RHYTHM_ASSERT(inflightRequests_ > 0);
    --inflightRequests_;
    if (!disconnected_.empty() && disconnected_.erase(client_id) > 0) {
        // The client hung up mid-pipeline: the work happened but the
        // response is undeliverable. Count it as an error (lost
        // goodput) and keep it out of the latency SLO window.
        ++stats_.clientDisconnects;
        ++stats_.errorResponses;
        return;
    }
    if (deadlinesTracked_) {
        if (!failed && latency <= typeDeadline(route_type))
            ++stats_.typedDeadlineHits;
        else
            ++stats_.typedDeadlineMisses;
    }
    if (failed)
        ++stats_.errorResponses;
    else
        ++stats_.responsesCompleted;
    OBS_COUNTER_ADD(failed ? "server.errors" : "server.responses", 1);
    if (config_.requestDeadline && latency > config_.requestDeadline)
        ++stats_.deadlineMisses;
    stats_.latencyMs.add(des::toMillis(latency));
    OBS_HIST_ADD("server.latency_ms", des::toMillis(latency));
    if (config_.shedLatencySlo)
        sloLatencyMs_.add(des::toMillis(latency));
    if (responseCb_)
        responseCb_(client_id, response, latency);
}

void
RhythmServer::launchCohort(CohortContext &ctx)
{
    ScratchUse scratch(launchBusy_);
    LaunchMember member = beginCohort(ctx, 0);
    launchMembers(std::span<LaunchMember>(&member, 1));
}

void
RhythmServer::launchCohortGroup(const std::vector<CohortContext *> &ctxs)
{
    if (!config_.fusionEnabled || ctxs.size() <= 1) {
        for (CohortContext *ctx : ctxs)
            launchCohort(*ctx);
        return;
    }
    // Begin every cohort first, in collection order — the order in
    // which fusion off launches them one by one. Host execution is
    // where backend state is read and mutated and response bytes are
    // written, so running it before (and independently of) the
    // grouping below keeps every delivered byte identical to
    // --fusion=off no matter how the cohorts are packed into launches.
    ScratchUse scratch(launchBusy_);
    std::vector<LaunchMember> begun;
    begun.reserve(ctxs.size());
    for (CohortContext *ctx : ctxs)
        begun.push_back(
            beginCohort(*ctx, static_cast<uint32_t>(begun.size())));

    // Greedy grouping in collection order: each cohort joins the first
    // compatible group. Collection order is deterministic (context-pool
    // scan order), so the grouping — and everything downstream — is a
    // pure function of the simulated schedule.
    std::vector<std::vector<LaunchMember>> groups;
    for (LaunchMember &member : begun) {
        size_t g = 0;
        while (g < groups.size() && !canFuse(groups[g], member))
            ++g;
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(std::move(member));
    }
    for (std::vector<LaunchMember> &group : groups)
        launchMembers(group);
}

bool
RhythmServer::canFuse(const std::vector<LaunchMember> &group,
                      const LaunchMember &next) const
{
    if (group.size() >= config_.fusionMaxCohorts)
        return false;
    // Fused cohorts interleave their stage kernels and backend trips,
    // so the pipeline shapes must match exactly.
    if (next.stages != group.front().stages)
        return false;
    // Packing must actually save a warp over padding each cohort's
    // tail separately — full warps gain nothing and would only widen
    // the blast radius of a hang or hedge.
    const uint32_t width =
        static_cast<uint32_t>(config_.warpModel.warpWidth);
    auto warps_of = [&](uint32_t lanes) {
        return (lanes + width - 1) / width;
    };
    uint32_t lanes = 0;
    uint32_t separate_warps = 0;
    for (const LaunchMember &member : group) {
        lanes += member.sample;
        separate_warps += warps_of(member.sample);
    }
    if (warps_of(lanes + next.sample) >=
        separate_warps + warps_of(next.sample))
        return false;
    // Control-flow compatibility against every member: O(1) reads of
    // the online fingerprint (DESIGN.md Section 6j).
    for (const LaunchMember &member : group) {
        if (fingerprints_->pairSimilarity(member.type, next.type) <
            config_.fusionSimilarityThreshold)
            return false;
    }
    return true;
}

RhythmServer::LaunchMember
RhythmServer::beginCohort(CohortContext &ctx, uint32_t slot)
{
    if (config_.adaptiveBatching) {
        if (lastLaunch_ != 0)
            launchGapMs_.add(des::toMillis(queue_.now() - lastLaunch_));
        lastLaunch_ = queue_.now();
        launchSizeAvg_.add(
            static_cast<double>(ctx.entries().size()));
    }
    ctx.markBusy();
    ++stats_.cohortsLaunched;
    LaunchMember member;
    member.ctx = &ctx;
    member.slot = slot;
    member.run = std::make_shared<CohortRun>();
    member.run->seq = cohortSeq_++;
    member.run->launchedAt = queue_.now();
    if (OBS_ENABLED()) {
        const uint32_t tr = obs::track::kCohortBase + ctx.id();
        OBS_TRACK_NAME(tr, "cohort ctx " + std::to_string(ctx.id()));
        // The dispatch stage for this cohort spans from its first
        // member's arrival in a context to the pipeline launch (now).
        OBS_SPAN_COMPLETE(
            tr, "dispatch", "stage", ctx.firstArrival(), queue_.now(),
            {"requests", static_cast<uint64_t>(ctx.entries().size())},
            {"type", std::string(service_.typeName(ctx.type()))});
        OBS_COUNTER_ADD("server.cohorts_launched", 1);
    }
    executeCohortHost(member);
    return member;
}

void
RhythmServer::launchMembers(std::span<LaunchMember> members)
{
    buildCommands(members);

    // The leader run carries the shared command sequence, the watchdog
    // and (for hedge replay) every member's backend calls; followers'
    // runs keep only their own buffers/responses for delivery.
    const std::shared_ptr<CohortRun> &leader = members.front().run;
    for (size_t i = 1; i < members.size(); ++i) {
        CohortRun &follower = *members[i].run;
        leader->backendCalls.insert(leader->backendCalls.end(),
                                    follower.backendCalls.begin(),
                                    follower.backendCalls.end());
        follower.backendCalls.clear();
        leader->followers.push_back(
            CohortRun::Follower{members[i].ctx, members[i].run});
    }
    maybeInjectHang(*leader, /*hedge=*/false);
    enqueueCohortPipeline(*members.front().ctx, leader);
}

void
RhythmServer::maybeInjectHang(CohortRun &run, bool hedge)
{
    std::vector<CohortRun::Cmd> &sequence =
        hedge ? run.hedgeSequence : run.sequence;
    if (!faultPlan_)
        return;
    const fault::Decision hang =
        faultPlan_->at(fault::Site::KernelHang, queue_.now());
    if (!hang.fire)
        return;
    ++stats_.kernelHangs;
    ++stats_.faultsInjected;
    OBS_COUNTER_ADD("watchdog.kernel_hangs", 1);
    OBS_INSTANT(obs::track::kEvents, "kernel-hang", "fault",
                {"cohort", run.seq});
    // The cohort's first kernel wedges: model it as a huge-but-finite
    // stall at the front of the command sequence, so the DES always
    // drains even with the watchdog off. The schedule's delay sets the
    // stall; a zero-delay schedule stalls long past any plausible
    // watchdog so the hedge always wins.
    des::Time stall = hang.delay;
    if (stall == 0) {
        stall = config_.watchdogTimeout > 0 ? 8 * config_.watchdogTimeout
                                            : des::kSecond;
    }
    CohortRun::Cmd cmd;
    cmd.kind = CohortRun::Cmd::Kind::HostDelay;
    cmd.delay = stall;
    cmd.hang = true;
    sequence.insert(sequence.begin(), cmd);
    if (!hedge)
        ++run.responseBeginIdx;
}

void
RhythmServer::executeCohortHost(LaunchMember &m)
{
    CohortContext &ctx = *m.ctx;
    CohortRun &run = *m.run;
    const uint32_t type = ctx.type();
    const uint32_t n = static_cast<uint32_t>(ctx.entries().size());
    const uint32_t sample =
        config_.laneSample == 0 ? n : std::min(n, config_.laneSample);
    run.executedLanes = sample;
    run.scale = static_cast<double>(n) / sample;

    const int stages = service_.numStages(type);
    RHYTHM_ASSERT(static_cast<uint64_t>(stages) <= kTokenStageSlots);
    RHYTHM_ASSERT(sample <= kTokenLaneSlots);
    const uint32_t lane_bytes = service_.responseBufferBytes(type);

    m.type = type;
    m.n = n;
    m.sample = sample;
    m.stages = stages;
    m.laneBytes = lane_bytes;

    CohortBufferConfig buf_cfg;
    buf_cfg.cohortSize = sample;
    buf_cfg.laneBytes = lane_bytes;
    buf_cfg.layout = config_.transposeBuffers ? BufferLayout::Transposed
                                              : BufferLayout::RowMajor;
    buf_cfg.padToWarpMax =
        config_.padResponses && config_.transposeBuffers;
    buf_cfg.warpWidth = config_.warpModel.warpWidth;
    // Per-shape buffer reuse: writers and lane storage keep their heap
    // capacity across cohorts; reset() scrubs the content. The run
    // owns the buffer (responses are zero-copy views into it) and
    // returns it to the per-shape pool after delivery.
    run.buffer = acquireBuffer(buf_cfg);
    CohortBuffer &buffer = *run.buffer;

    // The member's trace slot: lanes that finish early record nothing
    // in later stages, so every lane in use starts empty.
    if (memberTraces_.size() <= m.slot)
        memberTraces_.resize(m.slot + 1);
    std::vector<std::vector<simt::ThreadTrace>> &stage_traces =
        memberTraces_[m.slot];
    if (stage_traces.size() < static_cast<size_t>(stages))
        stage_traces.resize(static_cast<size_t>(stages));
    for (int s = 0; s < stages; ++s) {
        std::vector<simt::ThreadTrace> &v =
            stage_traces[static_cast<size_t>(s)];
        if (v.size() < sample)
            v.resize(sample);
        for (uint32_t lane = 0; lane < sample; ++lane)
            v[lane].clear();
    }

    run.failed.assign(sample, 0);
    uint64_t &backend_insts = m.backendInsts;
    uint64_t &backend_calls = m.backendCalls;

    // Cohort-level backend retry state: the budget is shared by all
    // lanes; per-stage retry rounds translate into backoff delays in
    // the simulated command sequence later.
    uint32_t retry_budget = config_.backendRetryBudget;
    m.retryRounds.assign(static_cast<size_t>(stages), 0);
    m.retriedCalls.assign(static_cast<size_t>(stages), 0);
    std::vector<uint32_t> &retry_rounds = m.retryRounds;
    std::vector<uint64_t> &retried_calls = m.retriedCalls;

    // One backend call, with transient-failure injection when a fault
    // plan is armed. A self-injecting BackendService produces the same
    // "ERR|unavailable" wire response, so both host- and device-path
    // failures funnel through the retry loop below.
    auto call_backend = [&](const std::string &request, uint64_t token,
                            simt::TraceRecorder &rec) -> std::string {
        if (faultPlan_ &&
            faultPlan_->at(fault::Site::BackendFail, queue_.now()).fire) {
            ++stats_.faultsInjected;
            OBS_INSTANT(obs::track::kEvents, "backend-fail", "fault");
            return backend::response::error(
                backend::response::kUnavailableReason);
        }
        return service_.executeBackend(request, token, rec);
    };

    // Record successful backend round trips only when the watchdog may
    // need to replay them — the default path allocates nothing.
    const bool record_backend_calls = config_.watchdogTimeout > 0;

    // Lanes whose backend calls exhausted the retry budget answer a
    // canned 503 instead of their buffer content.
    std::vector<uint8_t> unavailable(sample, 0);

    // The lanes' handler contexts, scrubbed (string capacity kept).
    std::vector<specweb::HandlerContext> &ctxs = handlerCtxs_;
    if (ctxs.size() < sample)
        ctxs.resize(sample);
    for (uint32_t lane = 0; lane < sample; ++lane) {
        specweb::HandlerContext &c = ctxs[lane];
        c.request = &ctx.entries()[lane].request;
        c.rec = nullptr;
        c.out = nullptr;
        c.sessions = sessions_.get();
        c.backendRequest.clear();
        c.backendResponse.clear();
        c.userId = 0;
        c.createdSessionId = 0;
        c.failed = false;
    }

    // Runs one (lane, stage) pair: bind the lane's recorder and writer,
    // execute the handler stage. Pure per-lane for parallel stages.
    auto run_lane_stage = [&](uint32_t lane, int s) {
        specweb::HandlerContext &hctx = ctxs[lane];
        simt::RecordingTracer rec(
            stage_traces[static_cast<size_t>(s)][lane]);
        hctx.rec = &rec;
        specweb::ResponseWriter &writer = buffer.writer(lane, rec);
        hctx.out = &writer;
        service_.runStage(type, s, hctx);
    };
    // Shared-state merge for one (lane, stage): failure latching and
    // the backend round trip. Must run in canonical lane order.
    // @return false when the lane is done (failed or final stage).
    auto merge_lane_stage = [&](uint32_t lane, int s) -> bool {
        specweb::HandlerContext &hctx = ctxs[lane];
        if (hctx.failed) {
            run.failed[lane] = 1;
            return false;
        }
        if (s >= stages - 1)
            return false;
        // Idempotency token for this logical call: unique across
        // (cohort launch, stage, lane), stable across retry attempts
        // and hedge replays. Slot widths bound real configurations
        // (stages ≤ 16, cohortSize ≤ 64K).
        const uint64_t token =
            (run.seq * kTokenStageSlots + static_cast<uint64_t>(s)) *
                kTokenLaneSlots +
            lane + 1;
        simt::CountingTracer counter;
        uint32_t attempts = 0;
        std::string resp = call_backend(hctx.backendRequest, token,
                                        counter);
        while (backend::response::isUnavailable(resp) &&
               retry_budget > 0) {
            --retry_budget;
            ++attempts;
            ++stats_.backendRetries;
            resp = call_backend(hctx.backendRequest, token, counter);
        }
        backend_insts += counter.instructions();
        backend_calls += 1 + attempts;
        const size_t si = static_cast<size_t>(s);
        retry_rounds[si] = std::max(retry_rounds[si], attempts);
        retried_calls[si] += attempts;
        if (backend::response::isUnavailable(resp)) {
            // Budget exhausted: isolate the failure to this lane — it
            // answers 503 while its cohort-mates complete normally.
            run.failed[lane] = 1;
            unavailable[lane] = 1;
            ++stats_.backendFailedLanes;
            return false;
        }
        if (record_backend_calls)
            run.backendCalls.push_back({token, hctx.backendRequest, resp});
        hctx.backendResponse = std::move(resp);
        hctx.backendRequest.clear();
        return true;
    };

    // Host-stage execution, stage-major (DESIGN.md 6f): all lanes run
    // stage s before any lane runs s+1. Stages the service declared
    // lane-parallel fan out over the sim pool in lane chunks (each lane
    // touches only its own trace slot, buffer slot and handler context);
    // the others run serially in lane order. Backend calls and all
    // shared-state bookkeeping (retry budget, stats) happen in a serial
    // merge phase in canonical lane order after each stage's fork/join,
    // so results are byte-identical at any --sim-threads. The chunk
    // size only affects scheduling, never results (outputs are
    // index-addressed); aim for a few chunks per worker.
    const size_t grain =
        std::max<size_t>(1, sample / (4 * util::simPool().threads()));
    std::vector<uint8_t> done(sample, 0);
    for (int s = 0; s < stages; ++s) {
        auto run_lanes = [&](size_t begin, size_t end) {
            for (size_t lane = begin; lane < end; ++lane) {
                if (!done[lane])
                    run_lane_stage(static_cast<uint32_t>(lane), s);
            }
        };
        if (service_.stageIsLaneParallel(type, s))
            util::simPool().parallelRanges(sample, grain, run_lanes);
        else
            run_lanes(0, sample);
        for (uint32_t lane = 0; lane < sample; ++lane) {
            if (!done[lane] && !merge_lane_stage(lane, s))
                done[lane] = 1;
        }
    }
    run.responses.resize(sample);
    for (uint32_t lane = 0; lane < sample; ++lane) {
        run.responses[lane] = unavailable[lane]
                                  ? std::string_view(
                                        kBackendUnavailableResponse)
                                  : buffer.content(lane);
    }

    // Replay the response stores with the configured layout/padding into
    // the final stage's traces.
    buffer.finalizeStores(stage_traces[static_cast<size_t>(stages - 1)]);
    run.paddingBytes = static_cast<uint64_t>(
        static_cast<double>(buffer.paddingBytes()) * run.scale);

    uint64_t content_bytes = 0;
    for (uint32_t lane = 0; lane < sample; ++lane)
        content_bytes += buffer.contentSize(lane);
    run.responseContentBytes = static_cast<uint64_t>(
        static_cast<double>(content_bytes) * run.scale);
}

void
RhythmServer::buildCommands(std::span<LaunchMember> members)
{
    const bool fused = members.size() > 1;
    CohortRun &leader = *members.front().run;
    const int stages = members.front().stages;
    uint32_t total_sample = 0;
    uint32_t total_n = 0;
    uint64_t backend_insts = 0;
    uint64_t backend_calls = 0;
    for (const LaunchMember &m : members) {
        RHYTHM_ASSERT(m.stages == stages);
        total_sample += m.sample;
        total_n += m.n;
        backend_insts += m.backendInsts;
        backend_calls += m.backendCalls;
    }
    // One aggregate sampling scale for the shared kernels (per-cohort
    // scales are kept on each run for its own byte accounting).
    const double scale =
        static_cast<double>(total_n) / static_cast<double>(total_sample);

    // Divergence-aware lane placement: concatenate each cohort's lanes
    // as a contiguous block, in member order. The lockstep scheduler's
    // majority-block selection then amortizes fetches over whole
    // same-type runs and only pays divergence where the types genuinely
    // split — which is what the similarity admission test predicted was
    // cheap. A group of one keeps its plain kernel names; a fused group
    // is named after its members. The lanes' request types stay out of
    // the profile-cache key, which covers every simulation input (the
    // lane traces and the warp model): equal keys mean bit-equal stats.
    std::string name;
    if (!fused) {
        name = service_.typeName(members.front().type);
    } else {
        name = "fused";
        for (const LaunchMember &m : members)
            name += "+" + std::string(service_.typeName(m.type));
    }
    std::vector<std::vector<const simt::ThreadTrace *>> stage_ptrs(
        static_cast<size_t>(stages));
    std::vector<simt::Engine::Launch> launches(
        static_cast<size_t>(stages));
    for (int s = 0; s < stages; ++s) {
        const size_t si = static_cast<size_t>(s);
        stage_ptrs[si].reserve(total_sample);
        for (LaunchMember &m : members) {
            for (uint32_t lane = 0; lane < m.sample; ++lane)
                stage_ptrs[si].push_back(&memberTraces_[m.slot][si][lane]);
        }
        launches[si].traces = &stage_ptrs[si];
        launches[si].model = &config_.warpModel;
        launches[si].name = name + "-stage" + std::to_string(s);
    }
    // Profile every pipeline stage in one engine region (warps of all
    // stages share one index space, so small stages cannot strand pool
    // workers); the command sequence is then assembled serially in
    // stage order — the canonical order the determinism contract
    // requires.
    std::vector<simt::KernelProfile> stage_profiles =
        device_.engine().profileMany(launches);

    // Online fingerprint feed: each member's self similarity from its
    // own contiguous lane slice, plus the measured cross similarity of
    // adjacent members (the pairs that actually share tail warps).
    if (fingerprints_) {
        const std::span<const simt::ThreadTrace *const> all(
            stage_ptrs[0].data(), stage_ptrs[0].size());
        size_t off = 0;
        for (const LaunchMember &m : members) {
            fingerprints_->observeLaunch(m.type, all.subspan(off, m.sample));
            off += m.sample;
        }
        off = 0;
        for (size_t i = 1; i < members.size(); ++i) {
            const LaunchMember &a = members[i - 1];
            const LaunchMember &b = members[i];
            fingerprints_->observePair(
                a.type, all.subspan(off, a.sample), b.type,
                all.subspan(off + a.sample, b.sample));
            off += a.sample;
        }
    }

    // Occupancy accounting: the tail lanes warp-width hardware would
    // idle on each process-stage launch (executed-lane granularity).
    // A fused launch shares one tail warp instead of one per cohort.
    const uint32_t width =
        static_cast<uint32_t>(config_.warpModel.warpWidth);
    auto warps_of = [&](uint32_t lanes) {
        return (lanes + width - 1) / width;
    };
    const uint64_t fused_warps = warps_of(total_sample);
    const uint64_t padded =
        static_cast<uint64_t>(fused_warps * width - total_sample) *
        static_cast<uint64_t>(stages);
    stats_.paddedLanes += padded;
    OBS_COUNTER_ADD("warp.fusion.padded_lanes", padded);
    if (fused) {
        uint64_t separate_warps = 0;
        for (const LaunchMember &m : members)
            separate_warps += warps_of(m.sample);
        const uint64_t saved =
            (separate_warps - fused_warps) * static_cast<uint64_t>(stages);
        ++stats_.fusedLaunches;
        stats_.fusedCohorts += members.size();
        stats_.fusionSavedWarps += saved;
        OBS_COUNTER_ADD("warp.fusion.fused_launches", 1);
        OBS_COUNTER_ADD("warp.fusion.fused_cohorts",
                        static_cast<uint64_t>(members.size()));
        OBS_COUNTER_ADD("warp.fusion.saved_warps", saved);
    }

    // ---- Shared command sequence on the leader ----------------------
    // Every count is the group total: the kernels cover all lanes, the
    // backend trips cover all members' records, and the response path
    // ships every member's buffer.
    using Cmd = CohortRun::Cmd;
    const uint64_t backend_req_bytes =
        static_cast<uint64_t>(total_n) *
        service_.backendRequestSlotBytes();
    const uint64_t backend_resp_bytes =
        static_cast<uint64_t>(total_n) *
        service_.backendResponseSlotBytes();

    for (int s = 0; s < stages; ++s) {
        simt::KernelProfile profile = scaleProfile(
            std::move(stage_profiles[static_cast<size_t>(s)]), scale);
        stats_.processIssueSlots +=
            static_cast<double>(profile.totals.issueSlots);
        stats_.processLaneInstructions +=
            static_cast<double>(profile.totals.laneInstructions);
        leader.sequence.push_back(
            Cmd{Cmd::Kind::Kernel,
                computeKernelCost(profile, device_.config()), 0, 0});

        if (s < stages - 1) {
            stats_.backendRequests += total_n;
            if (config_.backendOnDevice) {
                // Device-resident backend (Titan B/C): one streaming
                // kernel over the request/response records.
                const uint32_t insts_per_thread = static_cast<uint32_t>(
                    backend_calls ? backend_insts / backend_calls : 1000);
                simt::KernelProfile bp = simt::KernelProfile::streaming(
                    total_n, backend_req_bytes + backend_resp_bytes,
                    insts_per_thread, config_.warpModel, "backend");
                leader.sequence.push_back(
                    Cmd{Cmd::Kind::Kernel,
                        computeKernelCost(bp, device_.config()), 0, 0});
            } else {
                // Host backend (Titan A): transpose → D2H → host service
                // → H2D → transpose.
                if (config_.transposeBuffers) {
                    simt::KernelProfile tp =
                        simt::KernelProfile::streaming(
                            total_n, 2 * backend_req_bytes,
                            kTransposeInstsPerThread, config_.warpModel,
                            "breq-transpose");
                    leader.sequence.push_back(
                        Cmd{Cmd::Kind::Kernel,
                            computeKernelCost(tp, device_.config()), 0,
                            0});
                }
                leader.sequence.push_back(Cmd{Cmd::Kind::CopyToHost, {},
                                              backend_req_bytes, 0});
                leader.sequence.push_back(
                    Cmd{Cmd::Kind::HostDelay, {}, 0,
                        des::fromSeconds(total_n /
                                         config_.hostBackendReqsPerSec)});
                leader.sequence.push_back(Cmd{Cmd::Kind::CopyToDevice,
                                              {}, backend_resp_bytes,
                                              0});
                if (config_.transposeBuffers) {
                    simt::KernelProfile tp =
                        simt::KernelProfile::streaming(
                            total_n, 2 * backend_resp_bytes,
                            kTransposeInstsPerThread, config_.warpModel,
                            "bresp-transpose");
                    leader.sequence.push_back(
                        Cmd{Cmd::Kind::Kernel,
                            computeKernelCost(tp, device_.config()), 0,
                            0});
                }
            }

            // Degradation costs for this stage: an injected backend
            // brownout (one fault-plan draw per member, the number of
            // consultations separate launches would have made),
            // exponential backoff between each member's retry rounds,
            // and the service time of its retried calls. Zero on the
            // default path, so the sequence is unchanged when no faults
            // or retries occurred.
            des::Time extra = 0;
            for (const LaunchMember &m : members) {
                if (faultPlan_) {
                    const fault::Decision slow = faultPlan_->at(
                        fault::Site::BackendSlow, queue_.now());
                    if (slow.fire) {
                        ++stats_.faultsInjected;
                        OBS_INSTANT(
                            obs::track::kEvents, "backend-slow", "fault",
                            {"delay_us", des::toMicros(slow.delay)});
                        extra += slow.delay;
                    }
                }
                const size_t si = static_cast<size_t>(s);
                for (uint32_t r = 0; r < m.retryRounds[si]; ++r)
                    extra += config_.retryBackoffBase
                             << std::min<uint32_t>(r, 20);
                if (m.retriedCalls[si] > 0)
                    extra += des::fromSeconds(
                        static_cast<double>(m.retriedCalls[si]) /
                        config_.hostBackendReqsPerSec);
            }
            if (extra > 0)
                leader.sequence.push_back(
                    Cmd{Cmd::Kind::HostDelay, {}, 0, extra});
        }
    }

    // Response path: one transpose pass back to row-major (on device
    // unless the Titan C offload handles it) covering every member's
    // buffer, then one PCIe download if present. The paper ships the
    // full power-of-two response buffer across PCIe (26.4 KB per
    // request on average, Section 6.1.1) — the loose-fit buffer
    // overhead visible in Figures 9 and 10. With overlapPipeline the
    // chunked DMA engines gather-scissor the download to the bytes
    // actually occupied (content plus warp-max padding); the delivered
    // responses are the same either way.
    leader.responseBeginIdx = leader.sequence.size();
    if (config_.transposeBuffers && !config_.offloadResponseTranspose) {
        uint64_t resp_buf_bytes = 0;
        for (const LaunchMember &m : members)
            resp_buf_bytes += 2ull * m.laneBytes * static_cast<uint64_t>(m.n);
        simt::KernelProfile tp = simt::KernelProfile::streaming(
            total_n, resp_buf_bytes, kTransposeInstsPerThread,
            config_.warpModel, "resp-transpose");
        leader.sequence.push_back(Cmd{
            Cmd::Kind::Kernel, computeKernelCost(tp, device_.config()),
            0, 0});
    }
    if (config_.networkOverPcie) {
        uint64_t ship_bytes = 0;
        for (const LaunchMember &m : members) {
            const uint64_t loose_fit =
                static_cast<uint64_t>(m.laneBytes) * m.n;
            ship_bytes += config_.overlapPipeline
                              ? std::min(m.run->responseContentBytes +
                                             m.run->paddingBytes,
                                         loose_fit)
                              : loose_fit;
        }
        leader.sequence.push_back(
            Cmd{Cmd::Kind::CopyToHost, {}, ship_bytes, 0});
    }
}

void
RhythmServer::enqueueCohortPipeline(CohortContext &ctx,
                                    std::shared_ptr<CohortRun> run)
{
    const int stream =
        cohortStreams_[ctx.id() % cohortStreams_.size()];
    if (config_.watchdogTimeout > 0) {
        // DES-clock watchdog: if the cohort has not delivered by
        // launch + timeout, hedge it. The context reference stays
        // valid for the server's lifetime; a stale firing (cohort
        // already delivered, context possibly recycled) is a no-op
        // through the delivered/hedged guards.
        run->watchdogEvent =
            queue_.scheduleAfter(config_.watchdogTimeout,
                                 [this, &ctx, run]() {
                                     run->watchdogArmed = false;
                                     if (!run->delivered && !run->hedged)
                                         hedgeCohort(ctx, run);
                                 });
        run->watchdogArmed = true;
    }
    startCohortExec(ctx, std::move(run), stream, /*hedge=*/false);
}

void
RhythmServer::startCohortExec(CohortContext &ctx,
                              std::shared_ptr<CohortRun> run, int stream,
                              bool hedge)
{
    const std::vector<CohortRun::Cmd> &seq =
        hedge ? run->hedgeSequence : run->sequence;
    size_t &next = hedge ? run->hedgeNextCmd : run->nextCmd;
    if (!hedge && !run->delivered && OBS_ENABLED() &&
        !run->processClosed && next == run->responseBeginIdx) {
        // All process-stage commands have completed; the remaining
        // commands (if any) are the response path.
        run->processClosed = true;
        run->responseStart = queue_.now();
        OBS_SPAN_COMPLETE(
            obs::track::kCohortBase + ctx.id(), "process", "stage",
            run->launchedAt, queue_.now(),
            {"commands", static_cast<uint64_t>(run->responseBeginIdx)},
            {"lanes", static_cast<uint64_t>(run->executedLanes)});
    }
    if (next >= seq.size()) {
        execCompleted(ctx, run, hedge);
        return;
    }
    const CohortRun::Cmd &cmd = seq[next++];
    // Each command's completion steps the run again. The callback owns
    // the run only until it fires, so a finished run is freed.
    auto step = [this, &ctx, run, stream, hedge]() {
        startCohortExec(ctx, run, stream, hedge);
    };
    switch (cmd.kind) {
      case CohortRun::Cmd::Kind::Kernel:
        device_.launchKernel(stream, cmd.cost, std::move(step));
        break;
      case CohortRun::Cmd::Kind::CopyToHost:
        device_.copyToHost(stream, cmd.bytes, std::move(step));
        break;
      case CohortRun::Cmd::Kind::CopyToDevice:
        device_.copyToDevice(stream, cmd.bytes, std::move(step));
        break;
      case CohortRun::Cmd::Kind::HostDelay:
        queue_.scheduleAfter(cmd.delay, std::move(step));
        break;
    }
}

void
RhythmServer::execCompleted(CohortContext &ctx,
                            const std::shared_ptr<CohortRun> &run,
                            bool hedge)
{
    if (run->delivered) {
        // The other execution won. Canonical cancellation: the loser
        // stops here without touching the context or buffer — both
        // were released at delivery and may already serve a new
        // cohort.
        ++stats_.hedgeCancelled;
        OBS_COUNTER_ADD("watchdog.hedge_cancelled", 1);
        OBS_INSTANT(obs::track::kEvents,
                    hedge ? "hedge-cancelled" : "primary-cancelled",
                    "watchdog", {"cohort", run->seq});
        return;
    }
    run->delivered = true;
    if (run->watchdogArmed) {
        // Disarm like a real watchdog: the timer dies with the cohort
        // instead of idling in the queue past the end of the run.
        queue_.cancel(run->watchdogEvent);
        run->watchdogArmed = false;
    }
    if (hedge) {
        ++stats_.hedgeWins;
        OBS_COUNTER_ADD("watchdog.hedge_wins", 1);
    }
    cohortCompleted(ctx, run);
}

void
RhythmServer::hedgeCohort(CohortContext &ctx,
                          const std::shared_ptr<CohortRun> &run)
{
    run->hedged = true;
    ++stats_.watchdogFires;
    OBS_COUNTER_ADD("watchdog.fires", 1);
    OBS_INSTANT(obs::track::kEvents, "watchdog-hedge", "watchdog",
                {"cohort", run->seq},
                {"ctx", static_cast<uint64_t>(ctx.id())});

    // Exactly-once backend replay: with an idempotency layer attached,
    // re-issuing the recorded calls is safe — mutating operations
    // deduplicate against their journaled responses (no double-apply,
    // no retry-budget spend) and guarantee the hedge observes the
    // primary's outcomes even if the backend crashed and recovered in
    // between. Reads simply re-execute; a mismatch against the
    // primary's response is counted but never delivered (the primary's
    // buffer is the one that ships). Without the layer the device-side
    // re-execution alone is hedged and the backend is left untouched.
    if (service_.backendExactlyOnce()) {
        for (const CohortRun::BackendCall &call : run->backendCalls) {
            const std::string resp =
                service_.executeBackend(call.request, call.token, gNull);
            ++stats_.hedgeReplayedCalls;
            OBS_COUNTER_ADD("watchdog.replayed_calls", 1);
            if (resp != call.response) {
                ++stats_.hedgeReplayMismatches;
                OBS_COUNTER_ADD("watchdog.replay_mismatches", 1);
            }
        }
    }

    // Device-side re-execution: the primary's sequence minus any
    // injected hang, on the context's dedicated hedge stream. The
    // hedge draws its own hang decision — a hedge can hang too; the
    // primary then usually finishes first and the hedge is cancelled.
    run->hedgeSequence.clear();
    run->hedgeSequence.reserve(run->sequence.size());
    for (const CohortRun::Cmd &cmd : run->sequence) {
        if (!cmd.hang)
            run->hedgeSequence.push_back(cmd);
    }
    maybeInjectHang(*run, /*hedge=*/true);
    run->hedgeNextCmd = 0;
    const int stream = hedgeStreams_[ctx.id() % hedgeStreams_.size()];
    startCohortExec(ctx, run, stream, /*hedge=*/true);
}

void
RhythmServer::deliverRun(CohortContext &ctx, CohortRun &run,
                         des::Time now)
{
    const auto &entries = ctx.entries();
    stats_.responseBytes += run.responseContentBytes;
    stats_.paddingBytes += run.paddingBytes;
    if (OBS_ENABLED()) {
        if (!run.processClosed) {
            run.processClosed = true;
            run.responseStart = now;
            OBS_SPAN_COMPLETE(obs::track::kCohortBase + ctx.id(),
                              "process", "stage", run.launchedAt, now);
        }
        OBS_SPAN_COMPLETE(obs::track::kCohortBase + ctx.id(), "response",
                          "stage", run.responseStart, now,
                          {"bytes", run.responseContentBytes},
                          {"padding_bytes", run.paddingBytes});
    }
    for (size_t i = 0; i < entries.size(); ++i) {
        const bool executed = i < run.executedLanes;
        const bool failed = executed && run.failed[i] != 0;
        stats_.formationMs.add(
            des::toMillis(run.launchedAt - entries[i].arrival));
        stats_.pipelineMs.add(des::toMillis(now - run.launchedAt));
        OBS_HIST_ADD("server.formation_ms",
                     des::toMillis(run.launchedAt - entries[i].arrival));
        OBS_HIST_ADD("server.pipeline_ms",
                     des::toMillis(now - run.launchedAt));
        completeRequest(entries[i].clientId,
                        executed ? run.responses[i] : std::string_view(),
                        now - entries[i].arrival, failed, ctx.type());
    }
    if (config_.adaptiveBatching) {
        // Feed the slack model: pipeline (launch→response) time per
        // cohort of this type, plus the lane-count EWMA the admission
        // test turns into a drain rate.
        const double pipeline_ms = des::toMillis(now - run.launchedAt);
        if (ctx.type() < typeCostMs_.size())
            typeCostMs_[ctx.type()].add(pipeline_ms);
        aggCostMs_.add(pipeline_ms);
        OBS_GAUGE_SET("adaptive.cost_estimate_ms", aggCostMs_.value());
    }
    // Delivery done: the response views are dead, so the buffer can go
    // back to the per-shape pool for the next cohort of this shape.
    run.responses.clear();
    releaseBuffer(std::move(run.buffer));
    ctx.release();
}

void
RhythmServer::cohortCompleted(CohortContext &ctx,
                              const std::shared_ptr<CohortRun> &run)
{
    const des::Time now = queue_.now();
    deliverRun(ctx, *run, now);
    // A fused leader's command sequence covered its followers' lanes
    // too: the shared pipeline finishing means every member cohort's
    // responses are ready at the same simulated instant.
    for (CohortRun::Follower &f : run->followers)
        deliverRun(*f.ctx, *f.run, now);
    run->followers.clear();
    drainDispatch();
    pump();
}

std::unique_ptr<CohortBuffer>
RhythmServer::acquireBuffer(const CohortBufferConfig &cfg)
{
    // The pool key is (cohort size, lane bytes) — every other config
    // field is fixed for the server's lifetime, so a recycled buffer's
    // construction config matches cfg exactly.
    auto &free_list = bufferPool_[{cfg.cohortSize, cfg.laneBytes}];
    if (!free_list.empty()) {
        std::unique_ptr<CohortBuffer> buffer =
            std::move(free_list.back());
        free_list.pop_back();
        buffer->reset();
        return buffer;
    }
    return std::make_unique<CohortBuffer>(cfg);
}

void
RhythmServer::releaseBuffer(std::unique_ptr<CohortBuffer> buffer)
{
    if (!buffer)
        return;
    auto &free_list = bufferPool_[{buffer->config().cohortSize,
                                   buffer->config().laneBytes}];
    // At most one buffer per in-flight cohort context can be live, so
    // the free list never needs to hold more than that.
    if (free_list.size() < config_.cohortContexts)
        free_list.push_back(std::move(buffer));
}

uint64_t
RhythmServer::memoryFootprintBytes() const
{
    // Session array + per-context preallocated pools: request slots,
    // the largest response buffer, backend request/response slots and
    // a transpose staging buffer (Section 6.3).
    uint64_t max_buffer = 0;
    for (uint32_t i = 0; i < service_.numTypes(); ++i)
        max_buffer =
            std::max<uint64_t>(max_buffer, service_.responseBufferBytes(i));
    const uint64_t per_context =
        static_cast<uint64_t>(config_.cohortSize) *
        (config_.requestSlotBytes + max_buffer * 2 +
         service_.backendRequestSlotBytes() +
         service_.backendResponseSlotBytes());
    return sessions_->footprintBytes() +
           per_context * config_.cohortContexts;
}

} // namespace rhythm::core
