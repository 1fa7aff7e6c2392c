/**
 * @file Ownership of simulator callbacks: move-only captures work
 * through every continuation-taking API, and a closure too large to
 * store inline is destroyed exactly once whether it fires, is
 * cancelled, or is still pending when its owners are destroyed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/bounded_queue.hh"
#include "sim/inline_function.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace tpupoint {
namespace {

/** Counts its destructions; a moved-from instance counts nothing. */
class Counted
{
  public:
    explicit Counted(int *destroyed) : count(destroyed) {}

    Counted(Counted &&other) noexcept
        : count(std::exchange(other.count, nullptr))
    {
    }

    Counted &operator=(Counted &&) = delete;

    ~Counted()
    {
        if (count)
            ++*count;
    }

  private:
    int *count;
};

/** A callable over the inline buffer, so it is stored boxed. */
struct Big
{
    Counted counted;
    char padding[2 * kInlineFunctionBytes] = {};
    int *calls;

    void operator()() { ++*calls; }
};

static_assert(sizeof(Big) > kInlineFunctionBytes);

/** The same callable taking a queue item. */
struct BigConsumer
{
    Big big;

    void operator()(int) { big(); }
};

Big
makeBig(int *destroyed, int *calls)
{
    return Big{Counted(destroyed), {}, calls};
}

TEST(InlineFunctionTest, StoresSmallClosuresAndBoxesLargeOnes)
{
    int destroyed = 0;
    int calls = 0;
    {
        InlineFunction<void()> small(
            [counted = Counted(&destroyed), &calls] { ++calls; });
        InlineFunction<void()> big(makeBig(&destroyed, &calls));
        InlineFunction<void()> moved_small(std::move(small));
        InlineFunction<void()> moved_big(std::move(big));
        EXPECT_FALSE(small);
        EXPECT_FALSE(big);
        moved_small();
        moved_big();
        EXPECT_EQ(calls, 2);
        EXPECT_EQ(destroyed, 0);
        moved_big = nullptr;
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 2);
}

TEST(InlineFunctionTest, EmptyStdFunctionWrapsAsEmpty)
{
    EXPECT_FALSE(InlineFunction<void()>(std::function<void()>()));
    EXPECT_TRUE(InlineFunction<void()>(std::function<void()>([] {})));
    EXPECT_FALSE(InlineFunction<void()>(nullptr));
}

TEST(CallbackOwnershipTest, MoveOnlyCapturesReachEveryContinuation)
{
    Simulator sim;
    Resource resource(sim, 1);
    BoundedQueue<std::unique_ptr<int>> queue(sim, 1);
    std::vector<int> seen;

    sim.schedule(1, [p = std::make_unique<int>(1), &seen] {
        seen.push_back(*p);
    });
    resource.acquire([p = std::make_unique<int>(2), &seen, &resource] {
        seen.push_back(*p);
        resource.release();
    });
    resource.acquire([p = std::make_unique<int>(3), &seen, &sim,
                      &resource]() mutable {
        sim.schedule(5, [p = std::move(p), &seen, &resource] {
            resource.release();
            seen.push_back(*p);
        });
    });
    queue.push(std::make_unique<int>(4),
               [p = std::make_unique<int>(5), &seen] {
                   seen.push_back(*p);
               });
    queue.pop([p = std::make_unique<int>(6),
               &seen](std::unique_ptr<int> item) {
        seen.push_back(*item);
        seen.push_back(*p);
    });
    sim.run();
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(CallbackOwnershipTest, ScheduledClosureDestroyedOnceWhenFired)
{
    int destroyed = 0;
    int calls = 0;
    Simulator sim;
    sim.schedule(1, makeBig(&destroyed, &calls));
    sim.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 1);
}

TEST(CallbackOwnershipTest, ScheduledClosureDestroyedOnceWhenCancelled)
{
    int destroyed = 0;
    int calls = 0;
    Simulator sim;
    const EventId id = sim.schedule(1, makeBig(&destroyed, &calls));
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(destroyed, 1);
    sim.run();
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(destroyed, 1);
}

TEST(CallbackOwnershipTest, ScheduledClosureDestroyedOnceWhenPending)
{
    int destroyed = 0;
    int calls = 0;
    {
        Simulator sim;
        sim.schedule(1, makeBig(&destroyed, &calls));
        sim.schedule(2, makeBig(&destroyed, &calls));
        sim.runUntil(1);
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 2);
}

TEST(CallbackOwnershipTest, ResourceClosuresDestroyedOnce)
{
    int destroyed = 0;
    int calls = 0;
    {
        Simulator sim;
        Resource resource(sim, 1);
        resource.acquire(makeBig(&destroyed, &calls)); // granted
        resource.acquire(makeBig(&destroyed, &calls)); // waits
        sim.run();
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(destroyed, 1);
        resource.release(); // to the waiter
        sim.run();
        EXPECT_EQ(calls, 2);
        EXPECT_EQ(destroyed, 2);
        resource.release();
        // Pending at teardown: one grant scheduled, one waiter.
        resource.acquire(makeBig(&destroyed, &calls));
        resource.acquire(makeBig(&destroyed, &calls));
        EXPECT_EQ(resource.waiting(), 1u);
    }
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(destroyed, 4);
}

TEST(CallbackOwnershipTest, QueueClosuresDestroyedOnce)
{
    int destroyed = 0;
    int calls = 0;
    {
        Simulator sim;
        BoundedQueue<int> queue(sim, 1);
        queue.push(1, makeBig(&destroyed, &calls));
        queue.pop(BigConsumer{makeBig(&destroyed, &calls)});
        sim.run();
        EXPECT_EQ(calls, 2);
        EXPECT_EQ(destroyed, 2);
        // Pending at teardown: a parked consumer, then a delivery
        // scheduled but not run, and a parked producer.
        queue.pop(BigConsumer{makeBig(&destroyed, &calls)});
        EXPECT_EQ(queue.blockedConsumers(), 1u);
        queue.push(2, makeBig(&destroyed, &calls)); // to the consumer
        queue.push(3, makeBig(&destroyed, &calls)); // buffered
        queue.push(4, makeBig(&destroyed, &calls)); // parked
        EXPECT_EQ(queue.blockedProducers(), 1u);
    }
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(destroyed, 6);
}

} // namespace
} // namespace tpupoint
