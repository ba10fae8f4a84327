/**
 * @file
 * Fixed-size worker pool for deterministic host-side parallelism.
 *
 * The simulator's discrete-event core is single threaded by design, but
 * the expensive host-side computations *between* DES events — warp
 * lockstep simulation of an SM's resident warps, batch request parsing,
 * independent isolated-type simulations — are pure functions of their
 * inputs. This pool executes such work concurrently under a strict
 * determinism contract:
 *
 *  - Work is expressed as an index space [0, n). Each index is executed
 *    exactly once (work conservation), by exactly one thread, and must
 *    write only to state owned by that index (its output slot).
 *  - parallelFor() / parallelRanges() are barriers: they return only
 *    after every index has executed, so the caller can merge the output
 *    slots in canonical index order afterwards. Which *thread* ran an
 *    index is unspecified; because outputs are per-index slots and the
 *    merge is canonical, results are byte-identical for any thread
 *    count, including 1.
 *  - Exceptions thrown by the body are captured per chunk; after the
 *    barrier the exception of the lowest-indexed failing chunk is
 *    rethrown (deterministic propagation). Remaining chunks still run,
 *    so the pool stays in a consistent, reusable state.
 *  - Nested use from inside a worker of the same pool executes inline
 *    on that worker (no deadlock, no oversubscription): the outer
 *    parallel level wins, which is what the platform layer relies on
 *    when it parallelizes whole simulations that internally use the
 *    same pool.
 *
 * A pool of 1 thread runs everything inline on the calling thread and
 * never spawns workers — the default `--sim-threads=1` path is the
 * serial simulator, not a one-worker pool.
 */

#ifndef RHYTHM_UTIL_THREAD_POOL_HH
#define RHYTHM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rhythm::util {

/** Fixed-size worker pool with a deterministic fork/join contract. */
class ThreadPool
{
  public:
    /** Body invoked with a half-open index range [begin, end). */
    using RangeBody = std::function<void(size_t begin, size_t end)>;
    /** Body invoked with one index. */
    using IndexBody = std::function<void(size_t index)>;

    /**
     * Creates the pool. @p threads is clamped to >= 1; with 1 thread no
     * workers are spawned and all work runs inline.
     */
    explicit ThreadPool(unsigned threads = 1);

    /** Joins all workers. Outstanding work must have completed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute work (including the caller). */
    unsigned threads() const { return threads_; }

    /**
     * Executes body(i) for every i in [0, n); returns after all have
     * completed. See the file comment for the determinism contract.
     */
    void parallelFor(size_t n, const IndexBody &body);

    /**
     * Executes @p body over [0, n) in chunks of at most @p grain
     * indices; chunks are claimed dynamically (work conservation) and
     * the call returns only when every chunk has completed. Use a
     * grain > 1 when individual indices are too cheap to amortize a
     * claim (e.g. parsing one request).
     */
    void parallelRanges(size_t n, size_t grain, const RangeBody &body);

  private:
    struct Job
    {
        const RangeBody *body = nullptr;
        size_t n = 0;
        size_t grain = 1;
        size_t chunks = 0;
        size_t nextChunk = 0;  //!< Guarded by mutex_.
        size_t completed = 0;  //!< Guarded by mutex_.
        std::vector<std::exception_ptr> errors; //!< Slot per chunk.
    };

    void workerLoop();
    /** Claims and runs chunks of the current job until none remain. */
    void runChunks(Job &job);

    unsigned threads_ = 1;

    std::mutex mutex_;
    std::condition_variable workCv_; //!< Wakes workers on a new job.
    std::condition_variable doneCv_; //!< Wakes the owner on completion.
    Job *job_ = nullptr;             //!< Guarded by mutex_.
    size_t activeWorkers_ = 0;       //!< Workers inside the job; guarded by mutex_.
    uint64_t generation_ = 0;        //!< Bumped per job; guarded by mutex_.
    bool shutdown_ = false;          //!< Guarded by mutex_.
    std::vector<std::thread> workers_;
};

/**
 * The process-wide simulation pool, sized by setSimThreads() (default
 * 1 = serial). Created lazily on first use; the configured size is
 * applied to pools created afterwards, so configure it at startup,
 * before the first simulation runs (the --sim-threads flag does).
 */
ThreadPool &simPool();

/**
 * Sets the simulation thread count and replaces the global pool.
 * Must not be called while a parallel region is executing (call it
 * from the top of main, or between simulation runs).
 */
void setSimThreads(unsigned threads);

/** The configured simulation thread count. */
unsigned simThreads();

} // namespace rhythm::util

#endif // RHYTHM_UTIL_THREAD_POOL_HH
