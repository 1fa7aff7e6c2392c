/**
 * @file ThreadPool: inline fallback, graceful shutdown with queued
 * tasks, exception propagation, bounded-queue backpressure, forEach
 * coverage and hook accounting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hh"

namespace tpupoint {
namespace {

TEST(ThreadPoolTest, ZeroWorkersIsInlineInCallingThread)
{
    ThreadPool pool(0u);
    EXPECT_TRUE(pool.inlineMode());
    EXPECT_EQ(pool.workers(), 0u);

    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    auto future = pool.submit([&]() { ran_on = caller; });
    // Inline mode executes before submit() returns.
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, OneWorkerIsAlsoInline)
{
    ThreadPool pool(1u);
    EXPECT_TRUE(pool.inlineMode());
}

TEST(ThreadPoolTest, SubmitCarriesResult)
{
    ThreadPool pool(2u);
    auto future = pool.submit([]() { return 41 + 1; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2u);
    auto future = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, InlineSubmitPropagatesExceptionToo)
{
    ThreadPool pool(0u);
    auto future = pool.submit(
        []() { throw std::runtime_error("inline failure"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks)
{
    std::atomic<int> executed{0};
    constexpr int kTasks = 64;
    {
        ThreadPool pool(2u);
        for (int i = 0; i < kTasks; ++i) {
            pool.submit([&executed]() {
                // Slow tasks guarantee a backlog is still queued
                // when the destructor runs.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                executed.fetch_add(1);
            });
        }
    }
    // Shutdown drained everything rather than dropping the queue.
    EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, ForEachCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4u);
    constexpr std::size_t kItems = 100;
    std::vector<std::atomic<int>> hits(kItems);
    pool.forEach(kItems,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;

    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.submitted, kItems);
    EXPECT_EQ(stats.executed, kItems);
}

TEST(ThreadPoolTest, ForEachRethrowsLowestIndexError)
{
    ThreadPool pool(4u);
    const auto run = [&]() {
        pool.forEach(32, [](std::size_t i) {
            if (i == 7 || i == 19)
                throw std::runtime_error("item " +
                                         std::to_string(i));
        });
    };
    // Whatever order the workers hit the failures, the reported
    // error is the lowest index — same as the serial path.
    try {
        run();
        FAIL() << "forEach did not rethrow";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "item 7");
    }
}

TEST(ThreadPoolTest, InlineForEachMatchesSerialSemantics)
{
    ThreadPool pool(0u);
    std::vector<std::size_t> order;
    pool.forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, BoundedQueueStillCompletesEverything)
{
    ThreadPoolOptions options;
    options.workers = 2;
    options.queue_capacity = 4;
    ThreadPool pool(options);
    std::atomic<int> executed{0};
    constexpr int kTasks = 200;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&executed]() { executed.fetch_add(1); });
    pool.helpWhile(
        [&]() { return executed.load() == kTasks; });
    EXPECT_EQ(executed.load(), kTasks);
    // The cap held: the queue never grew past capacity.
    EXPECT_LE(pool.stats().max_queue_depth,
              options.queue_capacity);
}

TEST(ThreadPoolTest, RunOnePendingTaskReportsEmptyQueues)
{
    ThreadPool inline_pool(0u);
    EXPECT_FALSE(inline_pool.runOnePendingTask());
    ThreadPool pool(2u);
    pool.forEach(8, [](std::size_t) {});
    EXPECT_FALSE(pool.runOnePendingTask());
}

TEST(ThreadPoolTest, HooksSeeEveryTaskWithItsLabel)
{
    std::atomic<int> done_count{0};
    std::atomic<int> labeled{0};
    ThreadPoolOptions options;
    options.workers = 2;
    options.hooks.on_task_done =
        [&](const TaskTiming &timing) {
            done_count.fetch_add(1);
            if (timing.label &&
                std::string(timing.label) == "unit.task")
                labeled.fetch_add(1);
            EXPECT_GE(timing.finished_ns, timing.started_ns);
            EXPECT_GE(timing.started_ns, timing.enqueued_ns);
        };
    {
        ThreadPool pool(options);
        pool.forEach(16, [](std::size_t) {}, "unit.task");
    }
    EXPECT_EQ(done_count.load(), 16);
    EXPECT_EQ(labeled.load(), 16);
}

TEST(ThreadPoolTest, NestedForEachDoesNotDeadlock)
{
    ThreadPool pool(2u);
    std::atomic<int> inner_runs{0};
    // Outer tasks fan out their own inner work on the same pool —
    // the analyzer's detector → elbow-sweep shape. Waiters help,
    // so this completes even with every worker inside an outer
    // task.
    pool.forEach(4, [&](std::size_t) {
        pool.forEach(8, [&](std::size_t) {
            inner_runs.fetch_add(1);
        });
    });
    EXPECT_EQ(inner_runs.load(), 32);
}

} // namespace
} // namespace tpupoint
