/**
 * @file
 * Host memory stays bounded: a server that served more cohorts must not
 * leave more live heap behind once it is destroyed.
 *
 * Live heap bytes come from the sanitizer's allocator in sanitizer
 * builds, which own operator new. Elsewhere this binary replaces the
 * global allocation functions to count them, which is why it holds
 * nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
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

#ifdef RHYTHM_SANITIZER_HEAP

extern "C" std::size_t __sanitizer_get_current_allocated_bytes();

namespace {

int64_t
liveHeapBytes()
{
    return static_cast<int64_t>(__sanitizer_get_current_allocated_bytes());
}

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

} // namespace
} // namespace rhythm::core
