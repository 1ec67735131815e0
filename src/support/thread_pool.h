/**
 * @file
 * A small, deterministic thread pool for the compilation pipeline.
 *
 * Design constraints (Section "parallel planner" of the roadmap):
 *  - Fixed-size: N worker threads created up front, joined on
 *    destruction.  No work stealing; a single FIFO queue keeps task
 *    start order equal to submission order.
 *  - Futures-based: submit() returns a std::future that delivers the
 *    task's result or rethrows its exception in the waiting thread.
 *  - Nesting-safe: code running *on* a pool worker that calls
 *    parallelFor()/parallelMap() degrades to serial inline execution
 *    (workers never block on work queued behind themselves, so pools
 *    cannot deadlock), and every parallel helper produces bit-identical
 *    results to its serial equivalent.
 *
 * Thread-count policy: the SMARTMEM_THREADS environment variable
 * overrides std::thread::hardware_concurrency(); an explicit
 * ThreadBudgetGuard overrides both for the current thread (the compile
 * session pins jobs to budget 1 so per-model compilation stays serial
 * inside its workers).
 */
#ifndef SMARTMEM_SUPPORT_THREAD_POOL_H
#define SMARTMEM_SUPPORT_THREAD_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace smartmem::support {

/** Fixed-size FIFO thread pool; tasks start in submission order. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (clamped to [1, 512]). */
    explicit ThreadPool(int threads);

    /**
     * Destruction runs every task already queued to completion, then
     * joins the workers: nothing submitted before the destructor is
     * lost or cancelled.  Equivalent to drain() followed by teardown.
     * Use drain() to reach the same quiescent point without
     * destroying the pool.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /** Queue a task; the future rethrows the task's exception. */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Block until the pool is idle: every task submitted so far --
     * queued or mid-execution -- has finished.  Tasks submitted by
     * other threads while drain() waits are waited on too.  The pool
     * stays usable afterwards.  Calling drain() from a pool worker
     * would self-deadlock and is rejected with InternalError.
     */
    void drain();

    /** True on a thread owned by *any* ThreadPool.  Parallel helpers
     *  use this to run inline instead of re-entering a pool. */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idleCv_; ///< signalled when pending_ hits 0
    std::deque<std::packaged_task<void()>> queue_;
    std::size_t pending_ = 0; ///< queued + currently-executing tasks
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** Parse a thread-count string (SMARTMEM_THREADS); returns 0 when the
 *  value is missing, non-numeric, or < 1 (meaning "no override"). */
int parseThreadCount(const char *value);

/** SMARTMEM_THREADS if set and valid, else hardware_concurrency(),
 *  never less than 1.  Read once and cached for the process. */
int defaultThreadCount();

/**
 * Process-wide pool for intra-compilation parallelism (candidate
 * scoring in layout selection).
 * Null when defaultThreadCount() == 1; created lazily otherwise.
 */
ThreadPool *globalPool();

/** Thread-local parallelism budget for the current thread; 0 = unset
 *  (fall back to defaultThreadCount()). */
int currentThreadBudget();

/** RAII override of the current thread's parallelism budget. */
class ThreadBudgetGuard
{
  public:
    explicit ThreadBudgetGuard(int budget);
    ~ThreadBudgetGuard();
    ThreadBudgetGuard(const ThreadBudgetGuard &) = delete;
    ThreadBudgetGuard &operator=(const ThreadBudgetGuard &) = delete;

  private:
    int prev_;
};

/**
 * Number of chunks parallelFor() would split `n` items into right now:
 * min(budget, global pool size, n), and 1 on a pool worker thread.
 * Callers use it to pre-size per-slot scratch state.
 */
int effectiveParallelism(std::size_t n);

/**
 * Run fn(i, slot) for every i in [0, n).  Work is split into
 * effectiveParallelism(n) contiguous chunks; chunk 0 runs on the
 * calling thread, the rest on the global pool.  `slot` is the chunk
 * index (stable, < effectiveParallelism(n)); a slot never runs two
 * indices concurrently, so per-slot scratch needs no locking.  If any
 * iteration throws, the exception from the lowest-numbered chunk is
 * rethrown after all chunks finish.  Serial when n < 2, the budget is
 * 1, or the caller is a pool worker -- in every case the side effects
 * are identical to the serial loop.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t, int)> &fn);

/**
 * Evaluate fn(i) for i in [0, n) across up to `threads` threads
 * (0 = defaultThreadCount()) on a transient pool, returning results in
 * index order.  The result type must be default-constructible.  The
 * first exception (in index order) is rethrown after all tasks finish.
 * Serial inline when threads <= 1, n < 2, or on a pool worker.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, int threads, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<R> out(n);
    int t = threads > 0 ? threads : defaultThreadCount();
    if (ThreadPool::onWorkerThread() || currentThreadBudget() == 1)
        t = 1;
    if (t <= 1 || n < 2) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = fn(i);
        return out;
    }
    ThreadPool pool(static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(t), n)));
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(pool.submit([&out, &fn, i] {
            out[i] = fn(i);
        }));
    }
    std::exception_ptr first;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
    return out;
}

} // namespace smartmem::support

#endif // SMARTMEM_SUPPORT_THREAD_POOL_H
