/** @file Tests for the service thread-pool runtime. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/thread_pool.h"

namespace dac::service {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> touched(101);
    pool.parallelFor(touched.size(), [&](size_t i) { ++touched[i]; });
    for (const auto &count : touched)
        EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("13");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A pool task running parallelFor must finish even when every
    // worker is occupied: the calling thread drains its own loop.
    std::promise<void> finished; // outlives the pool's workers
    ThreadPool pool(2);
    std::atomic<int> total{0};
    ASSERT_TRUE(pool.tryPost([&]() {
        pool.parallelFor(8, [&](size_t) {
            pool.parallelFor(4, [&](size_t) { ++total; });
        });
        finished.set_value();
    }));
    finished.get_future().get();
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork)
{
    std::atomic<int> completed{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 16; ++i) {
            ASSERT_TRUE(pool.tryPost([&completed]() {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++completed;
            }));
        }
        pool.shutdown();
        EXPECT_EQ(completed.load(), 16);
        EXPECT_FALSE(pool.tryPost([]() {}));
    }
    EXPECT_EQ(completed.load(), 16);
}

/** Occupy every worker of `pool` until the returned promise is set. */
std::promise<void>
gateWorkers(ThreadPool &pool)
{
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<size_t> running{0};
    for (size_t i = 0; i < pool.threadCount(); ++i) {
        EXPECT_TRUE(pool.tryPost([gate, &running]() {
            ++running;
            gate.wait();
        }));
    }
    while (running.load() < pool.threadCount())
        std::this_thread::yield();
    return release;
}

TEST(ThreadPool, BoundedQueueRejectsTryPostWhenFull)
{
    ThreadPool::Options options;
    options.threads = 1;
    options.queueCapacity = 2;
    ThreadPool pool(options);

    // Block the single worker, then fill the two queue slots.
    std::promise<void> release = gateWorkers(pool);
    EXPECT_TRUE(pool.tryPost([]() {}));
    EXPECT_TRUE(pool.tryPost([]() {}));
    EXPECT_EQ(pool.queueDepth(), 2u);
    EXPECT_FALSE(pool.tryPost([]() {}));

    release.set_value();
    pool.shutdown();
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPool, ParallelForHelpersCannotFillTheQueue)
{
    // With every worker busy, each parallelFor queues helpers that go
    // stale once the caller finishes the loop alone. They must stay
    // capped at one per worker, leaving the rest of the queue to
    // requests.
    ThreadPool::Options options;
    options.threads = 2;
    options.queueCapacity = 8;
    ThreadPool pool(options);
    std::promise<void> release = gateWorkers(pool);

    std::atomic<int> total{0};
    for (int call = 0; call < 10; ++call)
        pool.parallelFor(4, [&](size_t) { ++total; });
    EXPECT_EQ(total.load(), 40);
    EXPECT_LE(pool.queueDepth(), pool.threadCount());
    EXPECT_TRUE(pool.tryPost([]() {}));

    release.set_value();
    pool.shutdown();
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
    EXPECT_EQ(pool.concurrency(), pool.threadCount());
}

} // namespace
} // namespace dac::service
