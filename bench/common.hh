/**
 * @file
 * Shared helpers for the benchmark harness: paper reference values and
 * uniform printing. Every bench binary regenerates one table or figure
 * of the paper and prints measured rows next to the paper's reference
 * values so the shape comparison is immediate.
 */

#ifndef RHYTHM_BENCH_COMMON_HH
#define RHYTHM_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "backend/recovery.hh"
#include "des/time.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/fleet.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "util/flags.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace rhythm::bench {

/** Paper Table 3 reference values for one platform row. */
struct PaperTable3Row
{
    const char *name;
    double idleWatts;
    double wallWatts;
    double dynamicWatts;
    double latencyMs;
    double throughputK; //!< KReqs/s
    double rpjWall;
    double rpjDynamic;
};

/** The paper's Table 3 (SPECWeb Banking experimental results). */
inline constexpr PaperTable3Row kPaperTable3[] = {
    {"Core i5 1 worker", 47, 67, 20, 0.016, 75, 972, 3283},
    {"Core i5 4 workers", 47, 98, 51, 0.016, 282, 2447, 4712},
    {"Core i7 4 workers", 45, 147, 102, 0.014, 331, 1901, 2735},
    {"Core i7 8 workers", 45, 156, 111, 0.014, 377, 2042, 2873},
    {"ARM A9 1 worker", 2, 3.4, 1.4, 0.176, 8, 1672, 4061},
    {"ARM A9 2 workers", 2, 4.5, 2.5, 0.176, 16, 2683, 4830},
    {"Titan A", 74, 226, 152, 86, 398, 1469, 2193},
    {"Titan B", 74, 306, 232, 24, 1535, 3329, 4410},
    {"Titan C", 74, 285, 211, 10, 3082, 9070, 12264},
};

/** Prints a bench banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n=================================================="
                 "====================\n"
              << title << "\n"
              << "Reproduces: " << paper_ref << "\n"
              << "=================================================="
                 "====================\n";
}

/** Formats a double with given precision (shorthand). */
inline std::string
fmt(double v, int precision = 2)
{
    return formatDouble(v, precision);
}

/** Formats "measured (paper ref)" in one cell. */
inline std::string
withRef(double measured, double reference, int precision = 2)
{
    return formatDouble(measured, precision) + " (" +
           formatDouble(reference, precision) + ")";
}

/** Lower-cases and underscores a display name into a stable metric key. */
inline std::string
slug(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out.push_back(c);
        else if (c == ' ' || c == '/' || c == '-')
            out.push_back('_');
        // Anything else (punctuation) is dropped.
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** Peak resident set size of this process in KiB (0 if unavailable). */
inline double
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
        return static_cast<double>(usage.ru_maxrss);
#endif
    }
#endif
    return 0.0;
}

/** Flags every bench and rhythm_sim take. */
inline constexpr FlagSpec kCommonSpecs[] = {
    {"help", FlagKind::Switch, "", "print this help and exit"},
    {"json", FlagKind::Text, "", "write the results as one JSON document",
     {}, "PATH"},
    {"sim-threads", FlagKind::Count, "1",
     "host worker threads of the execution engine; outputs are "
     "byte-identical for any N, so the value is not recorded",
     {0, 256}},
};
inline constexpr FlagTable kCommonFlags = {"common", kCommonSpecs};

/** The acceptance benches' short mode. */
inline constexpr FlagSpec kQuickSpecs[] = {
    {"quick", FlagKind::Switch, "off",
     "the short run CI uses (fewer seeds, requests or simulated time)"},
};
inline constexpr FlagTable kQuickFlags = {"run length", kQuickSpecs};

/** Reports a command-line error; returns the exit code (2). */
inline int
usageError(const std::string &message)
{
    std::cerr << "error: " << message << "\n(--help lists the flags)\n";
    return 2;
}

/**
 * The command line of every bench and of rhythm_sim: parses argv
 * against kCommonFlags plus @p tables, prints the help text for --help
 * (exit 0, before anything runs) and exits 2 with `error: ...` on an
 * unknown flag or a value that does not parse or is out of range. Then
 * applies --sim-threads.
 */
inline Flags
parseArgs(int argc, char **argv, std::initializer_list<FlagTable> tables = {})
{
    std::vector<FlagTable> all = {kCommonFlags};
    all.insert(all.end(), tables.begin(), tables.end());
    Flags flags;
    if (!flags.parse(argc, argv) || !flags.check(all))
        std::exit(usageError(flags.error()));
    if (flags.on("help")) {
        Flags::usage(std::cout,
                     std::filesystem::path(argv[0]).filename().string(),
                     all);
        std::exit(0);
    }
    util::setSimThreads(static_cast<unsigned>(flags.count("sim-threads")));
    return flags;
}

/**
 * Machine-readable bench output: every bench binary accepts
 * `--json=<path>` and, when given, emits one JSON document
 *
 *     {"bench": <name>, "config": {...}, "metrics": {...}}
 *
 * with flat dotted metric keys (e.g. "titan_b.throughput"). The schema
 * is shared by all benches and by `rhythm_sim --json`, and is what
 * tools/check_bench.py compares against bench/baselines/ in the CI
 * perf gate — so metric keys are part of a stable interface: renaming
 * one requires regenerating the baselines.
 *
 * Benches that also measure host-side performance opt into a fourth
 * top-level "host" object (enableHostStats): wall-clock since Reporter
 * construction ("host_ms"), peak RSS ("peak_rss_kb") and any values
 * recorded with hostStat(). Host values are machine-dependent, so
 * check_bench.py gates them with a separate, wider tolerance band
 * (--host-tolerance) than the exact deterministic metrics — and the
 * section stays off by default so outputs that CI byte-compares across
 * runs (e.g. rhythm_sim at different --sim-threads) remain identical.
 */
class Reporter
{
  public:
    /**
     * @param bench Stable bench name (matches the binary name).
     * @param flags The checked command line (its --json path).
     */
    Reporter(std::string bench, const Flags &flags)
        : bench_(std::move(bench)), path_(flags.text("json"))
    {
    }

    /** True when --json=<path> was passed. */
    bool enabled() const { return !path_.empty(); }

    /** Records a config key (run parameters, not compared by the gate). */
    void config(std::string key, double value)
    {
        config_.push_back({std::move(key), value, {}, false});
    }
    void config(std::string key, std::string value)
    {
        config_.push_back({std::move(key), 0.0, std::move(value), true});
    }

    /** Records one gate-comparable metric. */
    void metric(std::string key, double value)
    {
        metrics_.push_back({std::move(key), value});
    }

    /**
     * Records every metric of a registry (flattened dotted keys),
     * minus any whose name starts with @p exclude_prefix.
     */
    void metricsFrom(const obs::MetricsRegistry &registry,
                     const std::string &prefix = "",
                     std::string_view exclude_prefix = {})
    {
        for (auto &[key, value] : registry.flatten(exclude_prefix))
            metric(prefix + key, value);
    }

    /** Multi-prefix variant (see MetricsRegistry::flatten overload). */
    void metricsFrom(const obs::MetricsRegistry &registry,
                     const std::string &prefix,
                     std::span<const std::string_view> exclude_prefixes)
    {
        for (auto &[key, value] : registry.flatten(exclude_prefixes))
            metric(prefix + key, value);
    }

    /** Turns on the "host" section of the document (see class docs). */
    void enableHostStats() { hostStats_ = true; }

    /** Records one host-section value (implies enableHostStats). */
    void hostStat(std::string key, double value)
    {
        hostStats_ = true;
        host_.push_back({std::move(key), value});
    }

    /**
     * Writes the JSON document; no-op without --json. Returns false
     * (and prints to stderr) when the file cannot be written.
     */
    bool write() const
    {
        if (path_.empty())
            return true;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << "error: cannot write --json file: " << path_
                      << "\n";
            return false;
        }
        obs::JsonWriter w(out);
        w.beginObject();
        w.key("bench");
        w.value(bench_);
        w.key("config");
        w.beginObject();
        for (const auto &entry : config_) {
            w.key(entry.key);
            if (entry.isString)
                w.value(entry.str);
            else
                w.value(entry.num);
        }
        w.endObject();
        w.key("metrics");
        w.beginObject();
        for (const auto &[key, value] : metrics_) {
            w.key(key);
            w.value(value);
        }
        w.endObject();
        if (hostStats_) {
            w.key("host");
            w.beginObject();
            w.key("host_ms");
            w.value(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
            w.key("peak_rss_kb");
            w.value(peakRssKb());
            for (const auto &[key, value] : host_) {
                w.key(key);
                w.value(value);
            }
            w.endObject();
        }
        w.endObject();
        out << "\n";
        return out.good();
    }

  private:
    struct ConfigEntry
    {
        std::string key;
        double num = 0.0;
        std::string str;
        bool isString = false;
    };

    std::string bench_;
    std::string path_;
    std::vector<ConfigEntry> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, double>> host_;
    bool hostStats_ = false;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * Fault injection, crash recovery and graceful degradation: the same
 * flags in rhythm_sim and every bench that reads the family. Every knob
 * defaults off, so a run without them is byte-identical to one that
 * never supported them.
 */
struct FaultFlags
{
    static constexpr FlagSpec kFaultSpecs[] = {
        {"fault-seed", FlagKind::Count, "1", "fault plan seed"},
        {"backend-fail", FlagKind::Number, "0",
         "backend call failure probability", kProbability},
        {"backend-slow", FlagKind::Number, "0",
         "backend brownout probability", kProbability},
        {"backend-slow-ms", FlagKind::Number, "5", "mean brownout delay",
         kNonNegative},
        {"pcie-corrupt", FlagKind::Number, "0",
         "PCIe corrupt+replay probability", kProbability},
        {"pcie-degrade", FlagKind::Number, "0",
         "PCIe degradation probability", kProbability},
        {"pcie-degrade-factor", FlagKind::Number, "2",
         "PCIe degradation slowdown", kAtLeastOne},
        {"stall", FlagKind::Number, "0", "stream stall probability",
         kProbability},
        {"stall-ms", FlagKind::Number, "1", "mean stall duration",
         kNonNegative},
        {"disconnect", FlagKind::Number, "0",
         "client disconnect probability", kProbability},
        // Crashes are drawn, and torn records written, by the recovery
        // journal alone.
        {"crash", FlagKind::Number, "0",
         "backend crash-restart probability per journaled mutation",
         kProbability, {}, "recovery"},
        {"torn", FlagKind::Number, "0",
         "probability a crash tears the final journal record",
         kProbability, {}, "recovery"},
        {"hang", FlagKind::Number, "0",
         "kernel hang probability per cohort", kProbability},
        {"hang-ms", FlagKind::Number, "0",
         "injected hang duration; 0 = 8x --watchdog-ms, or 1 s without "
         "a watchdog",
         kNonNegative},
        {"watchdog-ms", FlagKind::Number, "0",
         "cohort watchdog timeout that hedges stragglers; 0 = off",
         kNonNegative},
        {"pcie-crc", FlagKind::Switch, "off",
         "PCIe frame CRC with bounded retransmit"},
        {"recovery", FlagKind::Switch, "off",
         "write-ahead journal and checkpointed backend (banking only)"},
        {"checkpoint-interval", FlagKind::Count, "4096",
         "journaled records between checkpoints"},
        {"retry-budget", FlagKind::Count, "0", "backend retries per cohort",
         {0, kMaxU32}},
        {"backoff-us", FlagKind::Number, "50", "retry backoff base",
         kNonNegative},
        {"deadline-ms", FlagKind::Number, "0",
         "per-request deadline; 0 = none", kNonNegative},
        {"shed-backlog", FlagKind::Count, "0",
         "shed arrivals at or above this formation backlog; 0 = off",
         {0, kMaxU32}},
        {"shed-p99-ms", FlagKind::Number, "0",
         "shed arrivals while the observed p99 exceeds this; 0 = off",
         kNonNegative},
    };
    static constexpr FlagTable kTable = {
        "faults, recovery and degradation (all off by default)",
        kFaultSpecs};

    /** The probability flag of each fault site, in schedule order. */
    static constexpr std::pair<fault::Site, const char *> kSites[] = {
        {fault::Site::BackendFail, "backend-fail"},
        {fault::Site::BackendSlow, "backend-slow"},
        {fault::Site::PcieCorrupt, "pcie-corrupt"},
        {fault::Site::PcieDegrade, "pcie-degrade"},
        {fault::Site::StreamStall, "stall"},
        {fault::Site::ClientDisconnect, "disconnect"},
        {fault::Site::BackendCrash, "crash"},
        {fault::Site::JournalTorn, "torn"},
        {fault::Site::KernelHang, "hang"},
    };

    fault::FaultConfig config;
    uint32_t retryBudget = 0;
    des::Time retryBackoff = 0;
    des::Time deadline = 0;
    uint32_t shedBacklog = 0;
    des::Time shedP99 = 0;
    des::Time watchdogTimeout = 0;
    bool pcieCrc = false;
    bool recovery = false;
    uint64_t checkpointInterval = 0;
    bool anyGiven = false; //!< Any flag of the family was given.

    FaultFlags() = default;

    explicit FaultFlags(const Flags &f)
        : anyGiven(!f.given(kTable).empty())
    {
        const auto ms = [&f](const char *name) {
            return des::fromSeconds(f.number(name) / 1e3);
        };
        config.seed = f.count("fault-seed");
        for (const auto &[site, name] : kSites)
            config.at(site).probability = f.number(name);
        config.at(fault::Site::BackendSlow).meanDelay = ms("backend-slow-ms");
        config.at(fault::Site::PcieDegrade).factor =
            f.number("pcie-degrade-factor");
        config.at(fault::Site::StreamStall).meanDelay = ms("stall-ms");
        config.at(fault::Site::KernelHang).meanDelay = ms("hang-ms");
        retryBudget = static_cast<uint32_t>(f.count("retry-budget"));
        retryBackoff = des::fromSeconds(f.number("backoff-us") / 1e6);
        deadline = ms("deadline-ms");
        shedBacklog = static_cast<uint32_t>(f.count("shed-backlog"));
        shedP99 = ms("shed-p99-ms");
        watchdogTimeout = ms("watchdog-ms");
        pcieCrc = f.on("pcie-crc");
        recovery = f.on("recovery");
        checkpointInterval = f.count("checkpoint-interval");
    }

    /** Sets the server's retry, deadline, shedding and watchdog knobs. */
    void apply(core::RhythmConfig &cfg) const
    {
        cfg.backendRetryBudget = retryBudget;
        cfg.retryBackoffBase = retryBackoff;
        cfg.requestDeadline = deadline;
        cfg.shedBacklogLimit = shedBacklog;
        cfg.shedLatencySlo = shedP99;
        cfg.watchdogTimeout = watchdogTimeout;
    }

    /** Sets the link model's frame CRC. */
    void apply(simt::DeviceConfig &cfg) const
    {
        cfg.pcieCrcEnabled = pcieCrc;
    }

    /** Both configs of a platform variant. */
    void apply(platform::TitanVariant &variant) const
    {
        apply(variant.server);
        apply(variant.device);
    }

    /** The run-level fields an isolated run arms itself: the fault
     *  schedule and the journaled backend. */
    void apply(platform::IsolatedRunOptions &opts) const
    {
        opts.faults = config;
        opts.recovery = recovery;
        opts.checkpointInterval = checkpointInterval;
    }

    /**
     * Engages @p storage with the schedule and returns it; nullptr when
     * the schedule is quiet.
     */
    fault::FaultPlan *plan(std::optional<fault::FaultPlan> &storage) const
    {
        return config.allQuiet() ? nullptr : &storage.emplace(config);
    }

    /**
     * Arms a directly-driven run (core::armRun): the schedule and, with
     * --recovery, the journaled backend. @p plan is the caller's
     * storage and, like the returned journal, must outlive the run.
     * Call after session population.
     */
    std::unique_ptr<backend::RecoverableBackend>
    arm(core::RhythmServer &server, simt::Device &device,
        des::EventQueue &queue, std::optional<fault::FaultPlan> &plan) const
    {
        return core::armRun(server, device, queue, this->plan(plan),
                            recovery, checkpointInterval);
    }

    /**
     * Records the fault-schedule metadata in the --json config section
     * (only when any family flag was given, so default outputs stay
     * byte-identical). check_bench.py requires these keys for
     * fault-sweeping benches (ext_recovery).
     */
    void recordConfig(Reporter &rep) const
    {
        if (!anyGiven)
            return;
        rep.config("fault_seed", static_cast<double>(config.seed));
        std::string schedule;
        for (const auto &[site, name] : kSites) {
            const double p = config.at(site).probability;
            if (p <= 0.0)
                continue;
            if (!schedule.empty())
                schedule += ";";
            schedule += std::string(name) + "=" + formatDouble(p, 6);
        }
        rep.config("fault_schedule",
                   schedule.empty() ? std::string("quiet") : schedule);
        rep.config("recovery", recovery ? 1.0 : 0.0);
        rep.config("watchdog_ms",
                   des::toSeconds(watchdogTimeout) * 1e3);
        rep.config("pcie_crc", pcieCrc ? 1.0 : 0.0);
    }
};

/**
 * Transfer/compute overlap (DESIGN.md 6h): the same flags in rhythm_sim
 * and the Titan benches. Off by default, so a run without them is
 * byte-identical to one that never supported them.
 */
struct OverlapFlags
{
    /** Engines / chunk size that --overlap implies unless overridden. */
    static constexpr int kDefaultEngines = 4;
    static constexpr uint32_t kDefaultChunkBytes = 256 * 1024;

    static constexpr FlagSpec kOverlapSpecs[] = {
        {"overlap", FlagKind::Switch, "off",
         "pipeline the parse of cohort k+1 under the kernels of cohort k "
         "and ship only occupied slot bytes; implies 4 copy engines and "
         "256 KiB chunks (responses are byte-identical on or off)"},
        {"copy-engines", FlagKind::Count, "",
         "modeled DMA engines per PCIe direction (1, or 4 with --overlap)",
         {1, kMaxI32}},
        // The chunk is held in bytes, in 32 bits.
        {"copy-chunk-kb", FlagKind::Count, "0",
         "DMA chunk size in KiB; 0 = whole transfers, or 256 with "
         "--overlap",
         {0, 4194303}},
    };
    static constexpr FlagTable kTable = {
        "transfer/compute overlap (off by default)", kOverlapSpecs};

    bool overlap = false;
    int copyEngines = 0;         //!< 0 = mode default.
    uint32_t copyChunkBytes = 0; //!< 0 = mode default.
    bool anyGiven = false;       //!< Any flag of the family was given.

    explicit OverlapFlags(const Flags &f)
        : overlap(f.on("overlap")),
          copyEngines(static_cast<int>(f.count("copy-engines"))),
          copyChunkBytes(
              static_cast<uint32_t>(f.count("copy-chunk-kb") * 1024)),
          anyGiven(!f.given(kTable).empty())
    {
    }

    /** Engines actually configured (--overlap implies a pool). */
    int effectiveEngines() const
    {
        if (copyEngines > 0)
            return copyEngines;
        return overlap ? kDefaultEngines : 1;
    }

    /** Chunk bytes actually configured (--overlap implies chunking). */
    uint32_t effectiveChunkBytes() const
    {
        if (copyChunkBytes > 0)
            return copyChunkBytes;
        return overlap ? kDefaultChunkBytes : 0;
    }

    /** Sets the copy-engine pool. */
    void apply(simt::DeviceConfig &cfg) const
    {
        cfg.copyEngines = effectiveEngines();
        cfg.copyChunkBytes = effectiveChunkBytes();
    }

    /** Sets the pipelined host stages. */
    void apply(core::RhythmConfig &cfg) const
    {
        cfg.overlapPipeline = overlap;
    }

    /** Both configs of a platform variant. */
    void apply(platform::TitanVariant &variant) const
    {
        apply(variant.server);
        apply(variant.device);
    }

    /**
     * Records the overlap configuration in the --json config section
     * (only when any family flag was given). check_bench.py requires
     * these keys for the overlap acceptance bench (ext_overlap).
     */
    void recordConfig(Reporter &rep) const
    {
        if (!anyGiven)
            return;
        rep.config("overlap", overlap ? 1.0 : 0.0);
        rep.config("copy_engines",
                   static_cast<double>(effectiveEngines()));
        rep.config("copy_chunk_kb", effectiveChunkBytes() / 1024.0);
    }
};

/**
 * Deadline-aware adaptive batching (DESIGN.md 6i): the same flags in
 * rhythm_sim and the adaptive acceptance bench. A run without them, or
 * with only `--batching=fixed`, is byte-identical to one that never
 * supported them.
 */
struct BatchingFlags
{
    static constexpr FlagSpec kBatchingSpecs[] = {
        {"batching", FlagKind::Choice, "fixed",
         "cohort formation policy; adaptive dispatches a forming cohort "
         "early when the oldest request's deadline slack drops below the "
         "modeled pipeline cost",
         {}, "fixed|adaptive"},
        {"deadline-default-ms", FlagKind::Number, "10",
         "deadline for types without their own", kPositive},
        {"deadline-ms-<type>", FlagKind::Number, "",
         "deadline of one type, by slugged type name (e.g. "
         "--deadline-ms-transfer=3)",
         kNonNegative},
        {"slack-safety", FlagKind::Number, "1.2",
         "cost-estimate safety factor", kPositive},
        {"adaptive-scan-us", FlagKind::Number, "200", "slack-scan period",
         kPositive},
        {"admission", FlagKind::Switch, "on",
         "deadline-aware admission control"},
    };
    static constexpr FlagTable kTable = {
        "deadline-aware adaptive batching (off by default)",
        kBatchingSpecs};

    bool adaptive = false;
    double defaultDeadlineMs = 0.0;
    double slackSafety = 0.0;
    double scanUs = 0.0;
    bool admission = false;
    /** Per-type deadlines as (slugged type name, ms) pairs. */
    std::vector<std::pair<std::string, double>> typeDeadlinesMs;
    /** The family's flags that were given, in command-line order. */
    std::vector<std::string> given;

    explicit BatchingFlags(const Flags &f)
        : adaptive(f.text("batching") == "adaptive"),
          defaultDeadlineMs(f.number("deadline-default-ms")),
          slackSafety(f.number("slack-safety")),
          scanUs(f.number("adaptive-scan-us")),
          admission(f.on("admission")), given(f.given(kTable))
    {
        for (const std::string &name : given)
            if (name.starts_with("deadline-ms-"))
                typeDeadlinesMs.emplace_back(name.substr(12),
                                             f.number(name));
    }

    /**
     * Sets the batching policy on a server config, resolving per-type
     * deadline slugs against @p service's type names. Exits 2 on a slug
     * no type matches (a silently ignored deadline would invalidate a
     * whole sweep).
     */
    void apply(core::RhythmConfig &cfg,
               const core::Service &service) const
    {
        cfg.adaptiveBatching = adaptive;
        cfg.defaultDeadline = des::fromSeconds(defaultDeadlineMs / 1e3);
        cfg.slackSafety = slackSafety;
        cfg.adaptiveScanInterval = des::fromSeconds(scanUs / 1e6);
        cfg.adaptiveAdmission = admission;
        if (typeDeadlinesMs.empty())
            return;
        cfg.typeDeadlines.assign(service.numTypes(), 0);
        for (const auto &[name, ms] : typeDeadlinesMs) {
            uint32_t t = 0;
            while (t < service.numTypes() &&
                   slug(service.typeName(t)) != name)
                ++t;
            if (t == service.numTypes()) {
                std::string error = "--deadline-ms-" + name +
                                    " matches no request type; known types:";
                for (uint32_t k = 0; k < service.numTypes(); ++k)
                    error.append(" ").append(slug(service.typeName(k)));
                std::exit(usageError(error));
            }
            cfg.typeDeadlines[t] = des::fromSeconds(ms / 1e3);
        }
    }

    /**
     * Records the batching policy in the --json config section, unless
     * nothing but an explicit `--batching=fixed` was given.
     * check_bench.py requires these keys for the adaptive acceptance
     * bench (ext_adaptive_batching).
     */
    void recordConfig(Reporter &rep) const
    {
        const auto has = [this](std::string_view name) {
            return std::ranges::find(given, name) != given.end();
        };
        if (!adaptive && given.size() == (has("batching") ? 1u : 0u))
            return;
        rep.config("batching",
                   std::string(adaptive ? "adaptive" : "fixed"));
        if (has("deadline-default-ms"))
            rep.config("deadline_default_ms", defaultDeadlineMs);
        if (!typeDeadlinesMs.empty()) {
            std::string spec;
            for (const auto &[name, ms] : typeDeadlinesMs) {
                if (!spec.empty())
                    spec += ";";
                spec += name + "=" + formatDouble(ms, 3);
            }
            rep.config("deadline_ms", spec);
        }
        if (has("slack-safety"))
            rep.config("slack_safety", slackSafety);
        if (has("admission"))
            rep.config("admission", admission ? 1.0 : 0.0);
    }
};

/**
 * Open-loop arrivals (DESIGN.md 6i): the same flags in rhythm_sim and
 * the open-loop benches. The default is the historical closed loop, so
 * a run without them is byte-identical to one that never supported
 * them.
 */
struct ArrivalFlags
{
    static constexpr FlagSpec kArrivalSpecs[] = {
        {"arrival", FlagKind::Choice, "closed",
         "arrival process driving injection (open loop: banking only)",
         {}, "closed|poisson|diurnal|flash"},
        {"arrival-rate", FlagKind::Number, "200000",
         "mean arrival rate, requests/s", kPositive},
        {"arrival-seed", FlagKind::Count, "1", "arrival-stream seed"},
        {"flash-mult", FlagKind::Number, "8", "flash-crowd rate multiplier",
         kAtLeastOne},
        {"flash-start-ms", FlagKind::Number, "50", "flash onset",
         kNonNegative},
        {"flash-dur-ms", FlagKind::Number, "50", "flash duration",
         kNonNegative},
        {"diurnal-period-ms", FlagKind::Number, "200",
         "diurnal cycle period", kPositive},
        {"diurnal-trough", FlagKind::Number, "0.25",
         "trough rate as a fraction of the peak", {0, 1, true}},
    };
    static constexpr FlagTable kTable = {
        "open-loop arrivals (closed loop by default)", kArrivalSpecs};

    net::ArrivalConfig config;

    explicit ArrivalFlags(const Flags &f)
    {
        config.kind = *net::parseArrivalKind(f.text("arrival"));
        config.rate = f.number("arrival-rate");
        config.seed = f.count("arrival-seed");
        config.flashMultiplier = f.number("flash-mult");
        config.flashStartSec = f.number("flash-start-ms") / 1e3;
        config.flashDurationSec = f.number("flash-dur-ms") / 1e3;
        config.diurnalPeriodSec = f.number("diurnal-period-ms") / 1e3;
        config.diurnalTroughFraction = f.number("diurnal-trough");
    }

    /** True when requests arrive open-loop (a generator drives time). */
    bool open() const
    {
        return config.kind != net::ArrivalKind::Closed;
    }

    /**
     * Records the arrival process in the --json config section (only
     * for open-loop runs — an explicit `--arrival=closed` alone must
     * leave the document byte-identical to a run without the flag).
     */
    void recordConfig(Reporter &rep) const
    {
        if (!open())
            return;
        rep.config("arrival",
                   std::string(net::arrivalKindName(config.kind)));
        rep.config("arrival_rate", config.rate);
        rep.config("arrival_seed", static_cast<double>(config.seed));
        if (config.kind == net::ArrivalKind::Flash) {
            rep.config("flash_mult", config.flashMultiplier);
            rep.config("flash_start_ms", config.flashStartSec * 1e3);
            rep.config("flash_dur_ms", config.flashDurationSec * 1e3);
        }
        if (config.kind == net::ArrivalKind::Diurnal) {
            rep.config("diurnal_period_ms",
                       config.diurnalPeriodSec * 1e3);
            rep.config("diurnal_trough",
                       config.diurnalTroughFraction);
        }
    }
};

/**
 * Cross-type cohort fusion (DESIGN.md 6j): the same flags in rhythm_sim
 * and the fusion acceptance bench. Fusion defaults off, so a run
 * without the flags, or with only `--fusion=off`, is byte-identical to
 * one that never supported them.
 */
struct FusionFlags
{
    static constexpr FlagSpec kFusionSpecs[] = {
        {"fusion", FlagKind::Switch, "off",
         "pack similarity-compatible partial cohorts into shared warps "
         "instead of padding each (responses are byte-identical on or "
         "off)"},
        {"fusion-threshold", FlagKind::Number, "0.5",
         "minimum online pair similarity to fuse (the Figure 2 "
         "indifference point)",
         kPositive},
        {"fusion-max-cohorts", FlagKind::Count, "4",
         "cohorts fusable into one launch", {1, kMaxU32}},
        {"fingerprint-alpha", FlagKind::Number, "0.25",
         "similarity EWMA smoothing factor", {0, 1, true}},
        {"fingerprint-lanes", FlagKind::Count, "32",
         "lanes sampled per fingerprint update", {2, kMaxU32}},
    };
    static constexpr FlagTable kTable = {
        "cross-type cohort fusion (off by default)", kFusionSpecs};

    bool fusion = false;
    double threshold = 0.0;
    uint32_t maxCohorts = 0;
    double alpha = 0.0;
    uint32_t lanes = 0;

    explicit FusionFlags(const Flags &f)
        : fusion(f.on("fusion")), threshold(f.number("fusion-threshold")),
          maxCohorts(static_cast<uint32_t>(f.count("fusion-max-cohorts"))),
          alpha(f.number("fingerprint-alpha")),
          lanes(static_cast<uint32_t>(f.count("fingerprint-lanes")))
    {
    }

    /** Sets the fusion policy on a server config. */
    void apply(core::RhythmConfig &cfg) const
    {
        cfg.fusionEnabled = fusion;
        cfg.fusionSimilarityThreshold = threshold;
        cfg.fusionMaxCohorts = maxCohorts;
        cfg.fingerprint.alpha = alpha;
        cfg.fingerprint.sampleLanes = lanes;
    }

    /**
     * Records the fusion policy in the --json config section (only when
     * fusion is on — an explicit `--fusion=off` alone must leave the
     * document byte-identical to a run without the flag).
     * check_bench.py requires these keys for the fusion acceptance
     * bench (ext_warp_fusion).
     */
    void recordConfig(Reporter &rep) const
    {
        if (!fusion)
            return;
        rep.config("fusion", 1.0);
        rep.config("fusion_threshold", threshold);
        rep.config("fusion_max_cohorts", static_cast<double>(maxCohorts));
        rep.config("fingerprint_alpha", alpha);
    }
};

/**
 * Multi-device sharding (DESIGN.md 6k): the same flags in rhythm_sim
 * and the sharding acceptance bench. One device by default.
 */
struct ShardingFlags
{
    static constexpr FlagSpec kShardingSpecs[] = {
        {"devices", FlagKind::Count, "1",
         "serve from an N-device fleet: per-device event streams, PCIe "
         "links, copy engines and backends behind a front-end balancer "
         "(banking, open-loop arrivals only)",
         {1, kMaxU32}},
        {"balance", FlagKind::Choice, "hash",
         "front-end routing: stable session hash or least outstanding "
         "requests",
         {}, "hash|least"},
        {"shard-seed", FlagKind::Count, "",
         "seed of the user-to-shard map (the fleet's built-in seed)"},
        {"cross-shard", FlagKind::Number, "0",
         "fraction of arrivals that also start a two-phase cross-shard "
         "transfer",
         kProbability},
    };
    static constexpr FlagTable kTable = {
        "multi-device sharding (one device by default)", kShardingSpecs};

    uint32_t devices = 1;
    std::string balance;
    uint64_t shardSeed = core::FleetConfig{}.shardMapSeed;
    double crossShard = 0.0;

    explicit ShardingFlags(const Flags &f)
        : devices(static_cast<uint32_t>(f.count("devices"))),
          balance(f.text("balance")), crossShard(f.number("cross-shard"))
    {
        if (f.has("shard-seed"))
            shardSeed = f.count("shard-seed");
    }

    bool fleet() const { return devices > 1; }

    /** Builds the fleet config (per-shard config stays RhythmConfig). */
    core::FleetConfig toFleetConfig() const
    {
        core::FleetConfig fc;
        fc.devices = devices;
        fc.balance = balance == "least"
                         ? core::BalanceMode::LeastOutstanding
                         : core::BalanceMode::SessionHash;
        fc.shardMapSeed = shardSeed;
        return fc;
    }

    /**
     * Records the sharding setup in the --json config section (only
     * for actual fleet runs — a `--devices=1` run must leave the
     * document byte-identical to a run without the flag).
     * check_bench.py requires these keys for the sharding acceptance
     * bench (ext_sharding).
     */
    void recordConfig(Reporter &rep) const
    {
        if (!fleet())
            return;
        rep.config("devices", static_cast<double>(devices));
        rep.config("balance", balance);
        rep.config("shard_seed", static_cast<double>(shardSeed));
        if (crossShard > 0)
            rep.config("cross_shard", crossShard);
    }
};

} // namespace rhythm::bench

#endif // RHYTHM_BENCH_COMMON_HH
