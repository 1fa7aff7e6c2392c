/**
 * @file
 * The process-wide task executor every parallel path in the
 * toolchain runs on: the analyzer's multi-algorithm finalize, the
 * k-means elbow fan-out, and the sweep runner's job pool all submit
 * to one ThreadPool, so a single `--threads N` knob governs the
 * whole process.
 *
 * Design:
 *  - Work stealing. Each worker owns a deque; submissions are dealt
 *    round-robin, owners pop their own back (LIFO, cache-warm) and
 *    idle workers steal from other fronts (FIFO, oldest first). The
 *    deques share one mutex — tasks here are coarse (a whole
 *    k-means run, a whole profiled session), so queue operations
 *    are nanoseconds against milliseconds-to-seconds of work and a
 *    finer lock would buy nothing.
 *  - Bounded queue. Submission blocks once `queue_capacity` tasks
 *    are pending, so a runaway producer cannot grow the queue
 *    without bound; a blocked submitter that is itself a worker
 *    executes pending tasks instead of deadlocking.
 *  - Graceful shutdown. The destructor drains every queued task
 *    before joining — submitted work always runs.
 *  - Composable waiting. forEach() and helpWhile() execute pending
 *    tasks while they wait, so pool work can itself submit pool
 *    work (the analyzer's detectors fan out their own elbow sweeps)
 *    without starving the workers.
 *  - Inline fallback. With zero or one worker no threads are
 *    spawned at all: submit() runs the task in the calling thread,
 *    which is the deterministic, debugger-friendly serial path
 *    `--threads 1` promises.
 *
 * Determinism contract: the pool never introduces randomness. Any
 * task set whose tasks are independent and write disjoint slots
 * produces bit-identical results whatever the worker count or
 * scheduling order. Observability hooks measure wall time only and
 * must never feed back into simulated time or seeded streams.
 */

#ifndef TPUPOINT_CORE_THREAD_POOL_HH
#define TPUPOINT_CORE_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tpupoint {

/**
 * Wall-clock timing of one executed task, delivered to
 * ThreadPoolHooks::on_task_done. Times are steady-clock
 * nanoseconds; `stolen` marks tasks a worker took from another
 * worker's deque.
 */
struct TaskTiming
{
    const char *label = nullptr; ///< Submission label (may be null).
    std::int64_t enqueued_ns = 0;
    std::int64_t started_ns = 0;
    std::int64_t finished_ns = 0;
    unsigned worker = 0; ///< Executing worker (0 in inline mode).
    bool stolen = false;

    std::int64_t queued_ns() const { return started_ns - enqueued_ns; }
    std::int64_t run_ns() const { return finished_ns - started_ns; }
};

/**
 * Optional observability callbacks. Invoked from worker threads
 * outside the pool lock; implementations must be thread-safe and
 * must not throw. obs::instrumentedPoolHooks() provides the
 * standard metrics/span wiring.
 */
struct ThreadPoolHooks
{
    /** After every completed task (exception or not). */
    std::function<void(const TaskTiming &)> on_task_done;

    /** Pending-task count after each enqueue/dequeue. */
    std::function<void(std::size_t depth)> on_queue_depth;

    /** Once per successful steal. */
    std::function<void()> on_steal;
};

/** Pool construction knobs. */
struct ThreadPoolOptions
{
    /**
     * Worker threads. 0 or 1 = inline mode: no threads are
     * spawned and submit() executes in the caller. Resolve
     * user-facing "0 = hardware concurrency" semantics with
     * obs::resolveThreadCount() before constructing.
     */
    unsigned workers = 1;

    /** Pending-task bound; submit() blocks (helping) at the cap.
     * 0 = unbounded. */
    std::size_t queue_capacity = 4096;

    ThreadPoolHooks hooks;
};

/**
 * RAII task-timing scope: stamps the start on construction and
 * reports the completed TaskTiming to the hooks on destruction, so
 * a task that throws is still timed and counted.
 */
class TaskScope
{
  public:
    TaskScope(const ThreadPoolHooks &pool_hooks, const char *label,
              std::int64_t enqueued_ns, unsigned worker,
              bool stolen);

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    ~TaskScope();

  private:
    const ThreadPoolHooks &hooks;
    TaskTiming timing;
};

/** Steady-clock nanoseconds (the time base of TaskTiming). */
std::int64_t steadyNowNs();

/** The shared work-stealing executor. */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    explicit ThreadPool(const ThreadPoolOptions &options);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    /** Worker threads (0 in inline mode). */
    unsigned workers() const { return worker_count; }

    /** True when submit() executes in the calling thread. */
    bool inlineMode() const { return worker_count == 0; }

    /**
     * Submit one task; the future carries its result or exception.
     * In inline mode the task runs before submit() returns.
     * @p label must outlive the pool (string literals in practice).
     */
    template <typename F>
    auto
    submit(const char *label, F &&fn)
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        post(label, [task]() { (*task)(); });
        return future;
    }

    template <typename F>
    auto
    submit(F &&fn)
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        return submit(nullptr, std::forward<F>(fn));
    }

    /**
     * Run @p fn(i) for every i in [0, n) across the pool and block
     * until all complete, executing pending tasks while waiting
     * (safe to call from inside a pool task). If any item throws,
     * the exception of the *lowest* index is rethrown after every
     * item has finished — deterministic whatever the worker count.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 const char *label = nullptr);

    /**
     * Execute one pending task in the calling thread, if any.
     * Returns false when every deque is empty.
     */
    bool runOnePendingTask();

    /**
     * Help execute pending tasks until @p done returns true. Used
     * by waiters that must not block workers; falls back to a
     * short timed wait when the queues are empty but @p done still
     * holds work in flight elsewhere.
     */
    void helpWhile(const std::function<bool()> &done);

    /** Lifetime telemetry (monotonic; readable any time). */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;
        std::uint64_t stolen = 0;
        std::uint64_t max_queue_depth = 0;
    };

    Stats stats() const;

  private:
    struct Task
    {
        std::function<void()> run;
        const char *label = nullptr;
        std::int64_t enqueued_ns = 0;
        unsigned home = 0; ///< Deque the task was dealt to.
    };

    /** Enqueue a type-erased task (blocks at the queue bound). */
    void post(const char *label, std::function<void()> fn);

    /** Worker main loop: own deque LIFO, steal FIFO, drain on
     * shutdown. */
    void workerLoop(unsigned self);

    /**
     * Dequeue one task for @p self (its own back first, then the
     * oldest task of the busiest victim). Caller holds `guard`.
     * Returns false when every deque is empty.
     */
    bool takeTask(unsigned self, Task *out, bool *stolen);

    /** Pending tasks across all deques. Caller holds `guard`. */
    std::size_t pendingLocked() const;

    void notifyDepth(std::size_t depth);

    ThreadPoolOptions opts;
    unsigned worker_count = 0;

    mutable std::mutex guard;
    std::condition_variable work_ready; ///< Tasks became available.
    std::condition_variable work_done;  ///< A task finished/space freed.
    std::vector<std::deque<Task>> deques;
    std::vector<std::thread> threads;
    std::size_t next_deque = 0; ///< Round-robin dealing cursor.
    bool stopping = false;

    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen_count{0};
    std::uint64_t max_depth = 0; ///< Guarded by `guard`.
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_THREAD_POOL_HH
