/**
 * @file
 * Unit tests for the support thread pool and the one parallel loop:
 * FIFO ordering, exception propagation through futures and
 * parallelFor, parallelFor's static ranges and nesting rule, and the
 * thread-count / budget policy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

TEST(ThreadPool, DestructorRunsAllQueuedTasks)
{
    // The documented destructor contract: queued-but-unstarted tasks
    // still run before the join, never task loss.
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

/** The [begin, end) ranges one parallelFor call hands its body, in
 *  ascending order. */
std::vector<std::pair<std::int64_t, std::int64_t>>
rangesOf(std::int64_t n, std::int64_t grain)
{
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    parallelFor(n, grain, [&](std::int64_t begin, std::int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
}

TEST(ThreadBudget, GuardOverridesAndRestores)
{
    int before = currentThreadBudget();
    {
        ThreadBudgetGuard guard(1);
        EXPECT_EQ(currentThreadBudget(), 1);
        EXPECT_EQ(rangesOf(1000, 1).size(), 1u); // budget 1: inline
        {
            ThreadBudgetGuard inner(3);
            EXPECT_EQ(currentThreadBudget(), 3);
        }
        EXPECT_EQ(currentThreadBudget(), 1);
    }
    EXPECT_EQ(currentThreadBudget(), before);
}

TEST(ThreadBudget, NonPositiveGuardKeepsCurrentBudget)
{
    ThreadBudgetGuard outer(5);
    {
        ThreadBudgetGuard zero(0);
        EXPECT_EQ(currentThreadBudget(), 5);
        ThreadBudgetGuard negative(-2);
        EXPECT_EQ(currentThreadBudget(), 5);
    }
    EXPECT_EQ(currentThreadBudget(), 5);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::int64_t n = 257;
    for (int budget : {1, 2, 4, 7}) {
        for (std::int64_t grain : {1, 3, 64}) {
            SCOPED_TRACE("budget " + std::to_string(budget) + " grain " +
                         std::to_string(grain));
            ThreadBudgetGuard guard(budget);
            std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
            for (auto &h : hits)
                h = 0;
            std::atomic<int> calls{0};
            parallelFor(n, grain, [&](std::int64_t begin, std::int64_t end) {
                ++calls;
                EXPECT_LT(begin, end);
                for (std::int64_t i = begin; i < end; ++i)
                    ++hits[static_cast<std::size_t>(i)];
            });
            for (auto &h : hits)
                EXPECT_EQ(h.load(), 1);
            EXPECT_LE(calls.load(),
                      std::min<std::int64_t>(budget,
                                             (n + grain - 1) / grain));
        }
    }
}

TEST(ParallelFor, SplitsIntoContiguousRangesOfTheBudget)
{
    ThreadBudgetGuard guard(4);
    using Ranges = std::vector<std::pair<std::int64_t, std::int64_t>>;
    // min(4, ceil(10 / 2)) = 4 ranges, the first 10 % 4 one longer.
    const Ranges expected = globalPool() != nullptr
        ? Ranges{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
        : Ranges{{0, 10}};
    EXPECT_EQ(rangesOf(10, 2), expected);
    EXPECT_TRUE(rangesOf(0, 2).empty());
}

TEST(ParallelFor, RethrowsLowestChunkException)
{
    // Budget 4 over 64 indices: ranges [0,16) [16,32) [32,48) [48,64).
    // Ranges 1 and 3 throw; range 1's exception wins whichever
    // finishes first (and so does the single inline call without a
    // global pool, which reaches index 20 first).
    ThreadBudgetGuard guard(4);
    const std::int64_t n = 64;
    try {
        parallelFor(n, 1, [&](std::int64_t begin, std::int64_t end) {
            if (begin <= 20 && 20 < end)
                throw std::runtime_error("range holding 20");
            if (end == n)
                throw std::runtime_error("last range");
        });
        FAIL() << "should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "range holding 20");
    }
}

TEST(ParallelFor, SerialInsidePoolWorkers)
{
    ThreadPool pool(2);
    std::size_t calls = 0;
    pool.submit([&calls] {
        ThreadBudgetGuard guard(4);
        calls = rangesOf(1000, 1).size();
    }).get();
    EXPECT_EQ(calls, 1u); // never re-enters a pool from a worker
}

TEST(ParallelFor, NestedLoopRunsInlineInsideABody)
{
    ThreadBudgetGuard guard(4);
    std::vector<std::size_t> inner(4, 0);
    std::vector<int> bodyBudget(4, 0);
    parallelFor(4, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
            const auto si = static_cast<std::size_t>(i);
            bodyBudget[si] = currentThreadBudget();
            inner[si] = rangesOf(1000, 1).size();
        }
    });
    for (std::size_t i = 0; i < inner.size(); ++i) {
        EXPECT_EQ(bodyBudget[i], 1);
        EXPECT_EQ(inner[i], 1u);
    }
    EXPECT_EQ(currentThreadBudget(), 4); // restored after the loop
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
