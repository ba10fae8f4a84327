#include "util/thread_pool.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.hh"

namespace rhythm::util {
namespace {

/// Set while a thread is executing chunks of some pool's job; nested
/// parallel regions detect it and run inline instead of re-entering
/// the pool (which would deadlock the barrier).
thread_local bool tlsInParallelRegion = false;

/// RAII marker for tlsInParallelRegion. Saves and restores the previous
/// value: an inline nested region ending must not make its enclosing
/// worker chunk look top-level again.
struct RegionScope
{
    bool prev;
    RegionScope() : prev(tlsInParallelRegion) { tlsInParallelRegion = true; }
    ~RegionScope() { tlsInParallelRegion = prev; }
};

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::max(threads, 1u))
{
    // The calling thread participates in every region, so spawn one
    // fewer worker than the requested width.
    workers_.reserve(threads_ - 1);
    for (unsigned i = 0; i + 1 < threads_; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::parallelFor(size_t n, const IndexBody &body)
{
    parallelRanges(n, 1, [&body](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            body(i);
    });
}

void
ThreadPool::parallelRanges(size_t n, size_t grain, const RangeBody &body)
{
    if (n == 0)
        return;
    grain = std::max<size_t>(grain, 1);
    // Serial pool, nested call from a worker, or trivially small job:
    // run inline on the calling thread. Identical results by contract
    // (per-index output slots, canonical merge by the caller).
    if (threads_ == 1 || tlsInParallelRegion || n <= grain) {
        RegionScope scope;
        body(0, n);
        return;
    }

    Job job;
    job.body = &body;
    job.n = n;
    job.grain = grain;
    job.chunks = (n + grain - 1) / grain;
    job.errors.assign(job.chunks, nullptr);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RHYTHM_ASSERT(job_ == nullptr, "pool re-entered concurrently");
        job_ = &job;
        ++generation_;
    }
    workCv_.notify_all();
    {
        // The owner works too; runChunks returns when no unclaimed
        // chunks remain (other threads may still be executing theirs).
        RegionScope scope;
        runChunks(job);
    }
    {
        // Wait not just for all chunks to complete but for every worker
        // to have *left* the job — `job` lives on this stack frame.
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [this, &job]() {
            return job.completed == job.chunks && activeWorkers_ == 0;
        });
        job_ = nullptr;
    }
    // Deterministic propagation: lowest failing chunk index wins,
    // independent of which thread hit it or in what order.
    for (auto &err : job.errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [this, seen]() {
                return shutdown_ || (job_ != nullptr && generation_ != seen);
            });
            if (shutdown_)
                return;
            seen = generation_;
            job = job_;
            ++activeWorkers_;
        }
        {
            RegionScope scope;
            runChunks(*job);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
            if (activeWorkers_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
ThreadPool::runChunks(Job &job)
{
    for (;;) {
        size_t chunk;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (job.nextChunk >= job.chunks)
                return;
            chunk = job.nextChunk++;
        }
        const size_t begin = chunk * job.grain;
        const size_t end = std::min(begin + job.grain, job.n);
        try {
            (*job.body)(begin, end);
        } catch (...) {
            job.errors[chunk] = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++job.completed;
            if (job.completed == job.chunks)
                doneCv_.notify_all();
        }
    }
}

namespace {

unsigned gSimThreads = 1;
std::unique_ptr<ThreadPool> gSimPool;

} // namespace

ThreadPool &
simPool()
{
    if (!gSimPool || gSimPool->threads() != gSimThreads)
        gSimPool = std::make_unique<ThreadPool>(gSimThreads);
    return *gSimPool;
}

void
setSimThreads(unsigned threads)
{
    gSimThreads = std::max(threads, 1u);
    gSimPool.reset();
}

unsigned
simThreads()
{
    return gSimThreads;
}

} // namespace rhythm::util
