/**
 * @file
 * Host memory stays bounded: a server that served more cohorts must not
 * leave more live heap behind once it is destroyed, and a server in
 * steady state must not keep re-growing its per-cohort storage.
 *
 * Heap counts come from the sanitizer's allocator in sanitizer builds,
 * which own operator new. Elsewhere this binary replaces the global
 * allocation functions to count them, which is why it holds nothing
 * else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string_view>
#include <vector>

#include "backend/bankdb.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "specweb/workload.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RHYTHM_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RHYTHM_SANITIZER_HEAP 1
#endif
#endif

namespace {

/** Bytes allocated so far (never decreases). */
std::atomic<int64_t> gAllocatedBytes{0};

} // namespace

#ifdef RHYTHM_SANITIZER_HEAP

extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void *, std::size_t),
    void (*free_hook)(const volatile void *));

namespace {

int64_t
liveHeapBytes()
{
    return static_cast<int64_t>(__sanitizer_get_current_allocated_bytes());
}

/** Counts every allocation the sanitizer's allocator serves. */
[[maybe_unused]] const int gHooked =
    __sanitizer_install_malloc_and_free_hooks(
        [](const volatile void *, std::size_t size) {
            gAllocatedBytes.fetch_add(static_cast<int64_t>(size),
                                      std::memory_order_relaxed);
        },
        [](const volatile void *) {});

} // namespace

#else

namespace {

std::atomic<int64_t> gLiveBytes{0};

// Each block carries its size in a header padded to the fundamental
// alignment, so deallocation can subtract it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void *
countedAlloc(std::size_t size)
{
    void *block = std::malloc(kHeader + size);
    if (!block)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(block) = size;
    gLiveBytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
    gAllocatedBytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
    return static_cast<char *>(block) + kHeader;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    void *block = static_cast<char *>(p) - kHeader;
    gLiveBytes.fetch_sub(
        static_cast<int64_t>(*static_cast<std::size_t *>(block)),
        std::memory_order_relaxed);
    std::free(block);
}

int64_t
liveHeapBytes()
{
    return gLiveBytes.load();
}

} // namespace

// The standard library's array and nothrow forms call these, so every
// non-aligned allocation is counted.
void *operator new(std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }

#endif // RHYTHM_SANITIZER_HEAP

namespace rhythm::core {
namespace {

constexpr uint32_t kCohortSize = 32;

/**
 * Steady-state heap bytes allocated per served lane. With libstdc++ a
 * server that keeps its trace capacity allocates about 4.3 KB a lane
 * in the test below (requests, parsed entries, backend strings, launch
 * bookkeeping); one that re-grows each lane's traces allocates 9.8 KB.
 */
constexpr double kSteadyBytesPerLane = 6000;

/**
 * Serves @p cohorts full account-summary cohorts, one after another, on
 * a fresh server and tears everything down.
 * @return Responses delivered.
 */
size_t
serveCohorts(uint32_t cohorts)
{
    des::EventQueue queue;
    backend::BankDb db(200, 11);
    simt::Device device(queue, simt::DeviceConfig{});
    BankingService service(db);
    RhythmConfig cfg;
    cfg.cohortSize = kCohortSize;
    cfg.cohortContexts = 4;
    cfg.cohortTimeout = des::kMillisecond;
    RhythmServer server(queue, device, service, cfg);
    specweb::WorkloadGenerator gen(db, 77);
    size_t responses = 0;
    server.setResponseCallback(
        [&responses](uint64_t, std::string_view, des::Time) {
            ++responses;
        });

    simt::NullTracer null;
    std::vector<uint64_t> sessions;
    for (uint64_t user = 1; user <= kCohortSize; ++user)
        sessions.push_back(server.sessions().create(user, null));
    uint64_t client = 0;
    for (uint32_t c = 0; c < cohorts; ++c) {
        for (uint64_t user = 1; user <= kCohortSize; ++user) {
            const auto req =
                gen.generate(specweb::RequestType::AccountSummary, user,
                             sessions[user - 1]);
            server.injectRequest(req.raw, ++client);
        }
        queue.run();
    }
    return responses;
}

TEST(HostMemory, ServingMoreCohortsLeavesNoMoreHeap)
{
    // Warm-up: first-use statics and process-wide pools settle here.
    serveCohorts(4);
    const size_t served_few = serveCohorts(4);
    const int64_t live_few = liveHeapBytes();
    const size_t served_many = serveCohorts(16);
    const int64_t live_many = liveHeapBytes();
    EXPECT_EQ(served_few, 4u * kCohortSize);
    EXPECT_EQ(served_many, 16u * kCohortSize);
    EXPECT_EQ(live_many, live_few)
        << "a destroyed server left heap behind that grows with the "
           "number of cohorts it served";
}

TEST(HostMemory, SteadyStatePartialCohortsStopAllocatingTraceStorage)
{
    // The open-loop shape: partial cohorts of several types whose
    // executed lanes vary from cohort to cohort below the lane sample.
    // Once every shape has been served, recorded traces must reuse the
    // capacity earlier cohorts grew; what is still allocated per
    // cohort is the requests, responses and launch bookkeeping. A
    // server that lets a lane's trace storage go between cohorts
    // re-grows each executed lane's final-stage trace (generation
    // blocks and replayed stores, kilobytes a lane) and fails the bound.
    const specweb::RequestType kTypes[] = {
        specweb::RequestType::AccountSummary,
        specweb::RequestType::CheckDetailHtml,
        specweb::RequestType::Profile,
        specweb::RequestType::BillPay,
    };
    const uint32_t kLanes[] = {9, 31, 17, 4, 26, 12};
    des::EventQueue queue;
    backend::BankDb db(200, 11);
    simt::Device device(queue, simt::DeviceConfig{});
    BankingService service(db);
    RhythmConfig cfg;
    cfg.cohortSize = kCohortSize;
    cfg.laneSample = kCohortSize;
    cfg.cohortContexts = 8;
    cfg.cohortTimeout = des::kMillisecond;
    RhythmServer server(queue, device, service, cfg);
    specweb::WorkloadGenerator gen(db, 77);
    simt::NullTracer null;
    std::vector<uint64_t> sessions;
    for (uint64_t user = 1; user <= kCohortSize; ++user)
        sessions.push_back(server.sessions().create(user, null));

    uint64_t client = 0;
    uint64_t lanes_served = 0;
    // One round serves every type at every lane count, so each round
    // repeats the same cohort shapes in the same order.
    auto serve_round = [&]() {
        for (const uint32_t lanes : kLanes) {
            for (const specweb::RequestType type : kTypes) {
                for (uint64_t user = 1; user <= lanes; ++user) {
                    const auto req =
                        gen.generate(type, user, sessions[user - 1]);
                    server.injectRequest(req.raw, ++client);
                }
                queue.run();
                lanes_served += lanes;
            }
        }
    };
    for (int warm = 0; warm < 3; ++warm)
        serve_round();
    const uint64_t cohorts_before = server.stats().cohortsLaunched;
    const uint64_t lanes_before = lanes_served;
    const int64_t bytes_before = gAllocatedBytes.load();
    for (int round = 0; round < 3; ++round)
        serve_round();
    const uint64_t cohorts = server.stats().cohortsLaunched - cohorts_before;
    const uint64_t lanes = lanes_served - lanes_before;
    const int64_t bytes = gAllocatedBytes.load() - bytes_before;
    ASSERT_EQ(cohorts, 3u * std::size(kLanes) * std::size(kTypes));
    const double per_lane =
        static_cast<double>(bytes) / static_cast<double>(lanes);
    EXPECT_LT(per_lane, kSteadyBytesPerLane)
        << bytes << " bytes allocated for " << lanes << " lanes in "
        << cohorts << " steady-state cohorts";
}

} // namespace
} // namespace rhythm::core
