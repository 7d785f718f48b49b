/** @file Unit tests for the fixed-size FIFO thread pool. */

#include "util/thread_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/logging.hh"

namespace proram::util
{
namespace
{

TEST(ThreadPool, RunsSubmittedJobs)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 10; ++i)
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, ReturnsValuesThroughFutures)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    // Futures collect in submission order regardless of completion
    // order - the property runGrid() relies on for deterministic
    // result layout.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::mutex m;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
        futures.push_back(pool.submit([&order, &m, i] {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(i);
        }));
    }
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i) << "FIFO queue must run jobs in order";
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("cell failed"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsPendingJobs)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 8; ++i)
            pool.submit([&ran] { ++ran; });
        // No explicit wait: destruction must still run everything.
    }
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv)
{
    // Only the count is parsed here; no pool is ever built from an
    // out-of-range value.
    ::setenv("PRORAM_BENCH_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    for (const char *bad : {"not-a-number", "0", "-2", "257", "4 "}) {
        ::setenv("PRORAM_BENCH_THREADS", bad, 1);
        EXPECT_THROW(ThreadPool::defaultThreadCount(), SimFatal)
            << "'" << bad << "'";
    }
    ::unsetenv("PRORAM_BENCH_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

} // namespace
} // namespace proram::util
