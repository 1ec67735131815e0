/**
 * @file
 * A small, deterministic thread pool and the library's one parallel
 * loop.
 *
 * Design constraints (Section "parallel planner" of the roadmap):
 *  - Fixed-size: N worker threads created up front, joined on
 *    destruction.  No work stealing; a single FIFO queue keeps task
 *    start order equal to submission order.
 *  - Futures-based: submit() returns a std::future that delivers the
 *    task's result or rethrows its exception in the waiting thread.
 *  - One loop, one pool: parallelFor() splits a range statically and
 *    runs its ranges on the caller and the process-wide globalPool(),
 *    whose threads are created once per process.  Kernels, layout
 *    selection and parallelMap() all go through it.
 *  - Nesting-safe: code running *on* a pool worker, or inside a loop
 *    body, that calls parallelFor()/parallelMap() runs inline
 *    (workers never block on work queued behind themselves, so pools
 *    cannot deadlock), and every parallel helper produces
 *    bit-identical results to its serial equivalent.
 *
 * Thread-count policy: the SMARTMEM_THREADS environment variable
 * overrides std::thread::hardware_concurrency(); an explicit
 * ThreadBudgetGuard overrides both for the current thread (the compile
 * session pins jobs to budget 1 so per-model compilation stays serial
 * inside its workers, and exec::CpuBackend::run installs its
 * `threads` option).
 */
#ifndef SMARTMEM_SUPPORT_THREAD_POOL_H
#define SMARTMEM_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
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
     * lost or cancelled.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /** Queue a task; the future rethrows the task's exception. */
    std::future<void> submit(std::function<void()> fn);

    /** True on a thread owned by *any* ThreadPool.  parallelFor()
     *  uses this to run inline instead of re-entering a pool. */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> queue_;
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
 * Process-wide pool of defaultThreadCount() workers that runs every
 * parallelFor() range but the caller's.  Null when
 * defaultThreadCount() == 1; created lazily otherwise.
 */
ThreadPool *globalPool();

/** Thread-local parallelism budget for the current thread; 0 = unset
 *  (fall back to defaultThreadCount()). */
int currentThreadBudget();

/** RAII override of the current thread's parallelism budget; a
 *  budget <= 0 keeps the current one. */
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
 * Invoke fn(begin, end) over a static partition of [0, n) into
 * c = min(budget, ceil(n / grain)) contiguous ranges, where budget is
 * the current thread's (currentThreadBudget(), else
 * defaultThreadCount()).  The ranges depend only on (n, grain, c);
 * range 0 runs on the calling thread and the others on globalPool().
 * One inline call fn(0, n) when c <= 1, when the caller is a worker
 * of any ThreadPool, or when there is no global pool.  Bodies run
 * under ThreadBudgetGuard(1), so a loop nested in a body runs inline.
 * After every range has finished, the exception of the lowest range
 * that failed is rethrown.
 */
void parallelFor(std::int64_t n, std::int64_t grain,
                 const std::function<void(std::int64_t begin,
                                          std::int64_t end)> &fn);

/**
 * Evaluate fn(i) for i in [0, n) under a budget of `threads`
 * (0 = the current thread's budget), returning results in index
 * order: parallelFor(n, 1, ...) under ThreadBudgetGuard(threads).
 * The result type must be default-constructible.  The first exception
 * in index order is rethrown after every range finishes.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, int threads, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    std::vector<std::invoke_result_t<Fn &, std::size_t>> out(n);
    ThreadBudgetGuard budget(threads);
    parallelFor(static_cast<std::int64_t>(n), 1,
                [&](std::int64_t begin, std::int64_t end) {
        for (auto i = static_cast<std::size_t>(begin);
             i < static_cast<std::size_t>(end); ++i)
            out[i] = fn(i);
    });
    return out;
}

} // namespace smartmem::support

#endif // SMARTMEM_SUPPORT_THREAD_POOL_H
