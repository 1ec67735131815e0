#include "support/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace smartmem::support {

namespace {

thread_local bool tl_on_worker = false;
thread_local int tl_budget = 0; // 0 = unset

} // namespace

ThreadPool::ThreadPool(int threads)
{
    // Clamp to [1, 512]: worker counts beyond any real core count
    // only add idle threads, and unbounded requests (a typo'd
    // --threads) could make std::thread construction throw mid-way.
    int n = std::min(std::max(threads, 1), 512);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> fn)
{
    std::packaged_task<void()> task(std::move(fn));
    std::future<void> future = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return future;
}

bool
ThreadPool::onWorkerThread()
{
    return tl_on_worker;
}

void
ThreadPool::workerLoop()
{
    tl_on_worker = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // exceptions land in the matching future
    }
}

int
parseThreadCount(const char *value)
{
    if (value == nullptr || *value == '\0')
        return 0;
    char *end = nullptr;
    long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n < 1)
        return 0;
    return static_cast<int>(std::min<long>(n, 1024));
}

int
defaultThreadCount()
{
    static const int count = [] {
        int env = parseThreadCount(std::getenv("SMARTMEM_THREADS"));
        if (env > 0)
            return env;
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }();
    return count;
}

ThreadPool *
globalPool()
{
    static ThreadPool *pool = defaultThreadCount() > 1
        ? new ThreadPool(defaultThreadCount())
        : nullptr; // leaked intentionally: lives for the process
    return pool;
}

int
currentThreadBudget()
{
    return tl_budget;
}

ThreadBudgetGuard::ThreadBudgetGuard(int budget) : prev_(tl_budget)
{
    if (budget > 0)
        tl_budget = budget;
}

ThreadBudgetGuard::~ThreadBudgetGuard()
{
    tl_budget = prev_;
}

void
parallelFor(std::int64_t n, std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &fn)
{
    if (n <= 0)
        return;
    grain = std::max<std::int64_t>(grain, 1);
    const int budget = tl_budget > 0 ? tl_budget : defaultThreadCount();
    const std::int64_t chunks =
        std::min<std::int64_t>(budget, (n + grain - 1) / grain);
    ThreadPool *pool = chunks > 1 && !tl_on_worker ? globalPool() : nullptr;
    if (pool == nullptr) {
        ThreadBudgetGuard serial(1);
        fn(0, n);
        return;
    }

    // Static partition: range c covers [c*base + min(c, extra), ...),
    // so its bounds depend only on (n, grain, chunks) -- every index
    // is processed by the same range whichever thread runs it.
    const std::int64_t base = n / chunks;
    const std::int64_t extra = n % chunks;
    auto rangeBegin = [base, extra](std::int64_t c) {
        return c * base + std::min(c, extra);
    };
    auto runRange = [&](std::int64_t c) {
        ThreadBudgetGuard serial(1);
        fn(rangeBegin(c), rangeBegin(c + 1));
    };
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(chunks - 1));
    for (std::int64_t c = 1; c < chunks; ++c)
        futures.push_back(pool->submit([&runRange, c] { runRange(c); }));
    std::exception_ptr first;
    try {
        runRange(0);
    } catch (...) {
        first = std::current_exception();
    }
    for (std::future<void> &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace smartmem::support
