#include "core/thread_pool.hh"

#include <algorithm>
#include <chrono>

namespace tpupoint {

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

TaskScope::TaskScope(const ThreadPoolHooks &pool_hooks,
                     const char *label, std::int64_t enqueued_ns,
                     unsigned worker, bool stolen)
    : hooks(pool_hooks)
{
    timing.label = label;
    timing.enqueued_ns = enqueued_ns;
    timing.started_ns = steadyNowNs();
    timing.worker = worker;
    timing.stolen = stolen;
}

TaskScope::~TaskScope()
{
    // Destructor-reported so a throwing task is still timed and
    // counted.
    timing.finished_ns = steadyNowNs();
    if (hooks.on_task_done)
        hooks.on_task_done(timing);
}

ThreadPool::ThreadPool(unsigned workers)
    : ThreadPool(ThreadPoolOptions{workers, 4096, {}})
{
}

ThreadPool::ThreadPool(const ThreadPoolOptions &options)
    : opts(options)
{
    // 0 or 1 requested workers = inline mode: the serial path
    // spawns no threads at all, so `--threads 1` is the program
    // the debugger and the determinism tests see.
    worker_count = opts.workers <= 1 ? 0 : opts.workers;
    deques.resize(worker_count);
    threads.reserve(worker_count);
    for (unsigned i = 0; i < worker_count; ++i)
        threads.emplace_back([this, i]() { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    if (inlineMode())
        return;
    {
        std::lock_guard<std::mutex> lock(guard);
        stopping = true;
    }
    work_ready.notify_all();
    for (auto &thread : threads)
        thread.join();
}

std::size_t
ThreadPool::pendingLocked() const
{
    std::size_t pending = 0;
    for (const auto &deque : deques)
        pending += deque.size();
    return pending;
}

void
ThreadPool::notifyDepth(std::size_t depth)
{
    if (opts.hooks.on_queue_depth)
        opts.hooks.on_queue_depth(depth);
}

void
ThreadPool::post(const char *label, std::function<void()> fn)
{
    submitted.fetch_add(1, std::memory_order_relaxed);

    if (inlineMode()) {
        {
            TaskScope scope(opts.hooks, label, steadyNowNs(),
                            /*worker=*/0, /*stolen=*/false);
            fn();
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    Task task;
    task.run = std::move(fn);
    task.label = label;
    task.enqueued_ns = steadyNowNs();

    for (;;) {
        std::unique_lock<std::mutex> lock(guard);
        const std::size_t pending = pendingLocked();
        if (opts.queue_capacity == 0 ||
            pending < opts.queue_capacity) {
            task.home = static_cast<unsigned>(next_deque);
            deques[next_deque].push_back(std::move(task));
            next_deque = (next_deque + 1) % deques.size();
            const std::size_t depth = pending + 1;
            max_depth = std::max<std::uint64_t>(max_depth, depth);
            lock.unlock();
            work_ready.notify_one();
            notifyDepth(depth);
            return;
        }
        lock.unlock();
        // Backpressure: the queue is at capacity. Help drain it
        // instead of blocking outright — a submitter that is
        // itself a pool worker would otherwise deadlock on a
        // queue only it could empty.
        if (!runOnePendingTask()) {
            std::unique_lock<std::mutex> wait(guard);
            if (pendingLocked() >= opts.queue_capacity)
                work_done.wait_for(
                    wait, std::chrono::microseconds(500));
        }
    }
}

bool
ThreadPool::takeTask(unsigned self, Task *out, bool *stolen)
{
    // Own deque first, newest task first: LIFO keeps the owner on
    // the warm end while thieves take the cold (oldest) end.
    if (self < deques.size() && !deques[self].empty()) {
        *out = std::move(deques[self].back());
        deques[self].pop_back();
        *stolen = false;
        return true;
    }
    // Steal the oldest task of the longest victim deque.
    std::size_t victim = deques.size();
    std::size_t longest = 0;
    for (std::size_t i = 0; i < deques.size(); ++i) {
        if (i != self && deques[i].size() > longest) {
            longest = deques[i].size();
            victim = i;
        }
    }
    if (victim == deques.size())
        return false;
    *out = std::move(deques[victim].front());
    deques[victim].pop_front();
    // Helpers (callers without a deque of their own) are not
    // counted as steals: the metric means inter-worker imbalance.
    *stolen = self < deques.size();
    return true;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        Task task;
        bool was_stolen = false;
        std::size_t depth = 0;
        {
            std::unique_lock<std::mutex> lock(guard);
            work_ready.wait(lock, [this]() {
                return stopping || pendingLocked() > 0;
            });
            if (!takeTask(self, &task, &was_stolen)) {
                if (stopping)
                    return; // every queued task has drained
                continue;
            }
            depth = pendingLocked();
        }
        if (was_stolen) {
            stolen_count.fetch_add(1, std::memory_order_relaxed);
            if (opts.hooks.on_steal)
                opts.hooks.on_steal();
        }
        notifyDepth(depth);
        {
            // post()'s contract: task bodies do not throw (submit
            // wraps them in packaged_task, forEach in its own
            // catch), so nothing escapes the worker here.
            TaskScope scope(opts.hooks, task.label,
                            task.enqueued_ns, self, was_stolen);
            task.run();
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        work_done.notify_all();
    }
}

bool
ThreadPool::runOnePendingTask()
{
    Task task;
    bool was_stolen = false;
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(guard);
        if (!takeTask(worker_count, &task, &was_stolen))
            return false;
        depth = pendingLocked();
    }
    notifyDepth(depth);
    {
        TaskScope scope(opts.hooks, task.label, task.enqueued_ns,
                        worker_count, /*stolen=*/false);
        task.run();
    }
    executed.fetch_add(1, std::memory_order_relaxed);
    work_done.notify_all();
    return true;
}

void
ThreadPool::helpWhile(const std::function<bool()> &done)
{
    while (!done()) {
        if (runOnePendingTask())
            continue;
        // Nothing queued but work is still in flight on other
        // workers: a short timed wait avoids both busy-spinning
        // and missed-wakeup subtleties.
        std::unique_lock<std::mutex> lock(guard);
        if (done())
            return;
        work_done.wait_for(lock, std::chrono::microseconds(500));
    }
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn,
                    const char *label)
{
    if (n == 0)
        return;

    // Per-index error slots: whatever the scheduling order, the
    // exception rethrown below is the lowest-index one, so a
    // failing parallel run reports the same error as the serial
    // run.
    auto errors =
        std::make_shared<std::vector<std::exception_ptr>>(n);

    if (inlineMode()) {
        for (std::size_t i = 0; i < n; ++i) {
            try {
                TaskScope scope(opts.hooks, label, steadyNowNs(),
                                0, false);
                fn(i);
            } catch (...) {
                (*errors)[i] = std::current_exception();
            }
            submitted.fetch_add(1, std::memory_order_relaxed);
            executed.fetch_add(1, std::memory_order_relaxed);
        }
    } else {
        auto remaining =
            std::make_shared<std::atomic<std::size_t>>(n);
        for (std::size_t i = 0; i < n; ++i) {
            post(label, [errors, remaining, &fn, i]() {
                try {
                    fn(i);
                } catch (...) {
                    (*errors)[i] = std::current_exception();
                }
                // Release: the final decrement publishes every
                // error slot to the acquiring waiter below.
                remaining->fetch_sub(1,
                                     std::memory_order_release);
            });
        }
        helpWhile([remaining]() {
            return remaining->load(std::memory_order_acquire) ==
                0;
        });
    }

    for (const std::exception_ptr &error : *errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats out;
    out.submitted = submitted.load(std::memory_order_relaxed);
    out.executed = executed.load(std::memory_order_relaxed);
    out.stolen = stolen_count.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(guard);
    out.max_queue_depth = max_depth;
    return out;
}

} // namespace tpupoint
