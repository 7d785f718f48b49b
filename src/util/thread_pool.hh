/**
 * @file
 * A minimal fixed-size thread pool (single shared FIFO queue, no work
 * stealing) for running independent simulation cells concurrently.
 *
 * Simulations are self-contained - every System owns its RNGs, tree
 * and stats - so cell-level parallelism needs no synchronisation
 * beyond the queue itself. Results stay bit-identical to serial runs
 * because each cell derives all randomness from its own config seed.
 */

#ifndef PRORAM_UTIL_THREAD_POOL_HH
#define PRORAM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace proram::util
{

/**
 * Fixed worker count, shared FIFO queue. Jobs are picked up in
 * submission order (though they may *complete* out of order); use the
 * returned futures to collect results in a deterministic order.
 */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains nothing: pending jobs still run; then workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Queue @p fn for execution. The future carries the return value
     * or any exception thrown by the job.
     */
    template <typename Fn>
    auto submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using R = std::invoke_result_t<Fn>;
        // shared_ptr because std::function requires a copyable target
        // and packaged_task is move-only.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /** Largest worker count $PRORAM_BENCH_THREADS may ask for. */
    static constexpr unsigned kMaxEnvThreads = 256;

    /**
     * Worker count from $PRORAM_BENCH_THREADS (checked: an integer in
     * 1..kMaxEnvThreads, else fatal), defaulting to
     * std::thread::hardware_concurrency() (>= 1).
     */
    static unsigned defaultThreadCount();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();

    /** Guards queue_ and stopping_. */
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace proram::util

#endif // PRORAM_UTIL_THREAD_POOL_HH
