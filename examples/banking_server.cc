/**
 * @file
 * Banking server demo: a closed-loop SPECWeb Banking run on Rhythm.
 *
 * Simulated clients follow real session lifecycles — log in, browse a
 * few Table 2-distributed pages using the cookie from the login
 * response, and log out — while the Rhythm pipeline batches everything
 * into cohorts on the simulated device. Every response is validated
 * with the SPECWeb-style validator.
 *
 * Usage: banking_server [clients] [pages-per-client] [cohort-size]
 */

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>

#include "backend/bankdb.hh"
#include "des/event_queue.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "specweb/workload.hh"
#include "util/strings.hh"

namespace {

using namespace rhythm;

/** One simulated client's session-lifecycle state machine. */
struct Client
{
    enum class Phase { LoggingIn, Browsing, LoggingOut, Done };
    Phase phase = Phase::LoggingIn;
    uint64_t user = 0;
    uint64_t sessionId = 0;
    int pagesLeft = 0;
    int validated = 0;
    int failed = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const int num_clients = argc > 1 ? std::atoi(argv[1]) : 64;
    const int pages_each = argc > 2 ? std::atoi(argv[2]) : 6;
    const uint32_t cohort_size =
        argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 64;

    des::EventQueue queue;
    simt::Device device(queue, simt::DeviceConfig{});
    backend::BankDb db(static_cast<uint64_t>(num_clients) + 10, 5);

    core::RhythmConfig config;
    config.cohortSize = cohort_size;
    config.cohortContexts = 8;
    config.cohortTimeout = des::kMillisecond;
    config.backendOnDevice = true; // Titan B style
    config.networkOverPcie = false;
    core::BankingService service(db);
    core::RhythmServer server(queue, device, service, config);

    specweb::WorkloadGenerator gen(db, 99);
    std::map<uint64_t, Client> clients;
    std::map<uint64_t, specweb::RequestType> outstanding;
    uint64_t next_request_id = 1;

    // Issues the next request in a client's lifecycle.
    std::function<void(uint64_t)> issue = [&](uint64_t client_id) {
        Client &c = clients[client_id];
        specweb::RequestType type;
        switch (c.phase) {
          case Client::Phase::LoggingIn:
            type = specweb::RequestType::Login;
            break;
          case Client::Phase::LoggingOut:
            type = specweb::RequestType::Logout;
            break;
          case Client::Phase::Browsing:
            type = gen.sampleBrowsingType();
            break;
          default:
            return;
        }
        specweb::GeneratedRequest req =
            gen.generate(type, c.user, c.sessionId);
        const uint64_t rid = next_request_id++;
        // Encode the owning client in the high bits of the request id.
        if (!server.injectRequest(req.raw, client_id << 32 | rid)) {
            // Reader full: a closed-loop client must not lose its
            // in-flight page or its lifecycle wedges, so back off and
            // reissue.
            queue.scheduleAfter(des::kMillisecond,
                                [&issue, client_id] {
                                    issue(client_id);
                                });
            return;
        }
        outstanding[rid] = type;
    };

    server.setResponseCallback([&](uint64_t tag,
                                   std::string_view response,
                                   des::Time) {
        const uint64_t client_id = tag >> 32;
        const uint64_t rid = tag & 0xffffffffu;
        Client &c = clients[client_id];
        const specweb::RequestType type = outstanding[rid];
        outstanding.erase(rid);

        auto v = specweb::validateResponse(type, response);
        v.ok ? ++c.validated : ++c.failed;

        switch (c.phase) {
          case Client::Phase::LoggingIn:
            c.sessionId = specweb::extractSessionId(response);
            c.phase = c.sessionId ? Client::Phase::Browsing
                                  : Client::Phase::Done;
            break;
          case Client::Phase::Browsing:
            if (--c.pagesLeft <= 0)
                c.phase = Client::Phase::LoggingOut;
            break;
          case Client::Phase::LoggingOut:
            c.phase = Client::Phase::Done;
            break;
          default:
            break;
        }
        if (c.phase != Client::Phase::Done)
            issue(client_id);
    });

    for (int i = 0; i < num_clients; ++i) {
        const uint64_t id = static_cast<uint64_t>(i) + 1;
        clients[id] =
            Client{Client::Phase::LoggingIn,
                   1 + static_cast<uint64_t>(i), 0, pages_each, 0, 0};
        issue(id);
    }
    queue.run();

    int validated = 0, failed = 0, done = 0;
    for (const auto &[id, c] : clients) {
        validated += c.validated;
        failed += c.failed;
        done += c.phase == Client::Phase::Done;
    }
    const core::RhythmStats &stats = server.stats();
    std::cout << "clients finished:        " << done << "/" << num_clients
              << "\nresponses validated:     " << validated
              << "\nresponses failed:        " << failed
              << "\ncohorts launched:        " << stats.cohortsLaunched
              << "\ncohort timeouts:         " << stats.cohortTimeouts
              << "\nsimulated time:          "
              << formatDouble(des::toMillis(queue.now()), 2) << " ms"
              << "\nthroughput:              "
              << humanCount(static_cast<double>(stats.responsesCompleted) /
                            des::toSeconds(queue.now()))
              << "reqs/s\nmean / p99 latency:      "
              << formatDouble(stats.latencyMs.mean(), 2) << " / "
              << formatDouble(stats.latencyMs.percentile(99), 2)
              << " ms\ndevice utilization:      "
              << formatDouble(device.kernelUtilization(), 2) << "\n";
    return failed == 0 && done == num_clients ? 0 : 1;
}
