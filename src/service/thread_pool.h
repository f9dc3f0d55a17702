/**
 * @file
 * The tuning service's thread-pool runtime: a fixed set of worker
 * threads draining a bounded FIFO work queue, plus the parallelFor
 * primitive the collector and GA use for fan-out.
 *
 * parallelFor is deadlock-free under nesting: the calling thread
 * participates in its own loop, so a pool task that itself calls
 * parallelFor makes progress even when every worker is busy; idle
 * workers merely accelerate it. Its queued helpers are capped at one
 * per worker, so stale ones cannot crowd requests out of the queue.
 */

#ifndef DAC_SERVICE_THREAD_POOL_H
#define DAC_SERVICE_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/executor.h"

namespace dac::service {

/**
 * Fixed-size worker pool over a bounded work queue.
 */
class ThreadPool final : public Executor
{
  public:
    /** Pool sizing. */
    struct Options
    {
        /** Worker threads (0 = one per hardware thread). */
        size_t threads = 0;
        /** Maximum queued (not yet running) tasks; tryPost() fails
         *  once the queue is this deep. */
        size_t queueCapacity = 1024;
    };

    /** Pool with `threads` workers and the default queue capacity. */
    explicit ThreadPool(size_t threads);
    explicit ThreadPool(Options options);

    /** Joins the workers after draining all queued work. */
    ~ThreadPool() override;

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool. */
    size_t threadCount() const { return workers.size(); }
    size_t concurrency() const override { return workers.size(); }

    /** Tasks queued and not yet picked up by a worker. */
    size_t queueDepth() const;

    /**
     * Enqueue a fire-and-forget task. Never blocks: false (and the
     * task dropped) when the queue is full or the pool shut down.
     */
    bool tryPost(std::function<void()> task);

    /**
     * Run body(0..n-1) across the pool and the calling thread; see
     * Executor::parallelFor for the contract.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t)> &body) override;

    /**
     * Stop accepting work, finish every queued task, and join the
     * workers. Idempotent; called by the destructor.
     */
    void shutdown();

  private:
    void workerLoop(size_t index);

    mutable std::mutex mutex;
    std::condition_variable taskReady; ///< signals workers: work/stop
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    size_t capacity;
    /** parallelFor helpers queued and not yet picked up; kept at or
     *  below threadCount(). */
    std::atomic<size_t> queuedHelpers{0};
    bool accepting = true;
    bool stopping = false;
};

} // namespace dac::service

#endif // DAC_SERVICE_THREAD_POOL_H
