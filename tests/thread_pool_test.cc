/**
 * @file
 * Unit tests for the support thread pool: FIFO ordering, exception
 * propagation through futures and parallelFor, slot discipline, and
 * the thread-count / budget policy.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/error.h"
#include "support/thread_pool.h"

namespace smartmem::support {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 100; ++i)
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SizeClampedToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    auto f = pool.submit([] {});
    f.get();
}

TEST(ThreadPool, SingleThreadPreservesSubmissionOrder)
{
    // One worker + one FIFO queue: start order == submission order.
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i)
        futures.push_back(pool.submit([&order, i] {
            order.push_back(i);
        }));
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] {});
    auto bad = pool.submit([] {
        throw std::runtime_error("task failed");
    });
    EXPECT_NO_THROW(ok.get());
    try {
        bad.get();
        FAIL() << "should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task failed");
    }
}

TEST(ThreadPool, WorkerThreadsAreFlagged)
{
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool pool(2);
    bool on_worker = false;
    pool.submit([&on_worker] {
        on_worker = ThreadPool::onWorkerThread();
    }).get();
    EXPECT_TRUE(on_worker);
}

TEST(ThreadPool, DrainWaitsForQueuedAndRunningWork)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++done;
        });
    }
    pool.drain();
    // drain() returns only once every submitted task has finished.
    EXPECT_EQ(done.load(), 16);

    // The pool is still usable afterwards (drain is not shutdown).
    auto f = pool.submit([&done] { ++done; });
    f.get();
    pool.drain();
    EXPECT_EQ(done.load(), 17);
}

TEST(ThreadPool, DrainOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.drain();
    pool.drain();
    SUCCEED();
}

TEST(ThreadPool, DrainFromWorkerThreadIsRefused)
{
    // A worker draining the pool it runs on would deadlock waiting on
    // itself; the guard turns that into an InternalError instead.
    ThreadPool pool(1);
    auto f = pool.submit([&pool] { pool.drain(); });
    EXPECT_THROW(f.get(), InternalError);
}

TEST(ThreadPool, DestructorRunsAllQueuedTasks)
{
    // The documented destructor contract: queued-but-unstarted tasks
    // still run (teardown == drain() + join, never task loss).
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++done;
            });
        }
    }
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadCount, ParseRejectsGarbage)
{
    EXPECT_EQ(parseThreadCount(nullptr), 0);
    EXPECT_EQ(parseThreadCount(""), 0);
    EXPECT_EQ(parseThreadCount("abc"), 0);
    EXPECT_EQ(parseThreadCount("4x"), 0);
    EXPECT_EQ(parseThreadCount("0"), 0);
    EXPECT_EQ(parseThreadCount("-3"), 0);
}

TEST(ThreadCount, ParseAcceptsPositiveIntegers)
{
    EXPECT_EQ(parseThreadCount("1"), 1);
    EXPECT_EQ(parseThreadCount("8"), 8);
    EXPECT_EQ(parseThreadCount("999999"), 1024); // clamped
}

TEST(ThreadCount, DefaultIsAtLeastOne)
{
    EXPECT_GE(defaultThreadCount(), 1);
}

TEST(ThreadBudget, GuardOverridesAndRestores)
{
    int before = currentThreadBudget();
    {
        ThreadBudgetGuard guard(1);
        EXPECT_EQ(currentThreadBudget(), 1);
        EXPECT_EQ(effectiveParallelism(1000), 1);
        {
            ThreadBudgetGuard inner(3);
            EXPECT_EQ(currentThreadBudget(), 3);
        }
        EXPECT_EQ(currentThreadBudget(), 1);
    }
    EXPECT_EQ(currentThreadBudget(), before);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), [&](std::size_t i, int) {
        ++hits[i];
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SlotsAreWithinRangeAndExclusive)
{
    const std::size_t n = 301;
    const int slots = effectiveParallelism(n);
    ASSERT_GE(slots, 1);
    // Record the slot each index ran on; contiguous chunking means
    // each slot owns one contiguous index range.
    std::vector<int> slot_of(n, -1);
    parallelFor(n, [&](std::size_t i, int slot) {
        slot_of[i] = slot;
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GE(slot_of[i], 0);
        ASSERT_LT(slot_of[i], slots);
        if (i > 0) {
            EXPECT_LE(slot_of[i - 1], slot_of[i]);
        }
    }
}

TEST(ParallelFor, MatchesSerialAccumulation)
{
    // Per-slot partial sums recombined in slot order must equal the
    // serial result (the pattern for per-slot scratch state).
    const std::size_t n = 1000;
    const int slots = effectiveParallelism(n);
    std::vector<long> partial(static_cast<std::size_t>(slots), 0);
    parallelFor(n, [&](std::size_t i, int slot) {
        partial[static_cast<std::size_t>(slot)] +=
            static_cast<long>(i);
    });
    long total = 0;
    for (long p : partial)
        total += p;
    EXPECT_EQ(total, static_cast<long>(n * (n - 1) / 2));
}

TEST(ParallelFor, RethrowsLowestChunkException)
{
    const std::size_t n = 64;
    try {
        parallelFor(n, [&](std::size_t i, int) {
            if (i == 0)
                throw std::runtime_error("first");
            if (i == n - 1)
                throw std::runtime_error("last");
        });
        FAIL() << "should have rethrown";
    } catch (const std::runtime_error &e) {
        // Index 0 lives in chunk 0, the lowest-numbered chunk that
        // threw, so its exception wins deterministically.
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ParallelFor, SerialInsidePoolWorkers)
{
    ThreadPool pool(2);
    int nested = -1;
    pool.submit([&nested] {
        nested = effectiveParallelism(1000);
    }).get();
    EXPECT_EQ(nested, 1); // never re-enters a pool from a worker
}

TEST(ParallelMap, ReturnsResultsInIndexOrder)
{
    auto out = parallelMap(100, 4, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelMap, RethrowsFirstExceptionInIndexOrder)
{
    try {
        parallelMap(32, 4, [](std::size_t i) -> int {
            if (i == 3)
                throw std::runtime_error("i3");
            if (i == 30)
                throw std::runtime_error("i30");
            return 0;
        });
        FAIL() << "should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "i3");
    }
}

} // namespace
} // namespace smartmem::support
