/** @file Counted-resource acquisition semantics. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/resource.hh"

namespace tpupoint {
namespace {

TEST(ResourceTest, ZeroUnitsRejected)
{
    Simulator sim;
    EXPECT_THROW(Resource(sim, 0), std::runtime_error);
}

TEST(ResourceTest, GrantsUpToCapacity)
{
    Simulator sim;
    Resource r(sim, 2);
    int granted = 0;
    r.acquire([&] { ++granted; });
    r.acquire([&] { ++granted; });
    r.acquire([&] { ++granted; });
    sim.run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(r.waiting(), 1u);
    EXPECT_EQ(r.freeUnits(), 0u);
}

TEST(ResourceTest, ReleaseWakesOldestWaiter)
{
    Simulator sim;
    Resource r(sim, 1);
    std::vector<int> order;
    r.acquire([&] { order.push_back(0); });
    r.acquire([&] { order.push_back(1); });
    r.acquire([&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0}));
    r.release();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    r.release();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ResourceTest, OverReleasePanics)
{
    Simulator sim;
    Resource r(sim, 1);
    EXPECT_THROW(r.release(), std::logic_error);
}

/** Acquire a unit, hold it for @p duration, then release it and
 * record the time in @p done_at. */
void
hold(Simulator &sim, Resource &r, SimTime duration, SimTime &done_at)
{
    r.acquire([&sim, &r, duration, &done_at] {
        sim.schedule(duration, [&sim, &r, &done_at] {
            r.release();
            done_at = sim.now();
        });
    });
}

TEST(ResourceTest, HoldersQueueForASingleUnit)
{
    Simulator sim;
    Resource r(sim, 1);
    SimTime first_done = 0, second_done = 0;
    hold(sim, r, 100, first_done);
    hold(sim, r, 50, second_done);
    sim.run();
    EXPECT_EQ(first_done, 100);
    // The second holder waits for the first to release.
    EXPECT_EQ(second_done, 150);
    EXPECT_EQ(r.freeUnits(), 1u);
}

TEST(ResourceTest, ParallelUnitsOverlap)
{
    Simulator sim;
    Resource r(sim, 2);
    SimTime a = 0, b = 0;
    hold(sim, r, 100, a);
    hold(sim, r, 100, b);
    sim.run();
    EXPECT_EQ(a, 100);
    EXPECT_EQ(b, 100); // ran concurrently on two units
}

TEST(ResourceTest, TryAcquireTakesAllUnitsOrNone)
{
    Simulator sim;
    Resource r(sim, 3);
    EXPECT_TRUE(r.tryAcquire(2));
    EXPECT_EQ(r.freeUnits(), 1u);
    EXPECT_FALSE(r.tryAcquire(2));
    EXPECT_EQ(r.freeUnits(), 1u);
    // No grant event: the units are held on return.
    EXPECT_TRUE(sim.idle());
    r.release();
    r.release();
    EXPECT_EQ(r.freeUnits(), 3u);
}

TEST(ResourceTest, TryAcquireNeverPassesAWaiter)
{
    Simulator sim;
    Resource r(sim, 1);
    int granted = 0;
    r.acquire([&] { ++granted; });
    r.acquire([&] { ++granted; });
    sim.run();
    EXPECT_FALSE(r.tryAcquire(1));
    r.release(); // to the waiter, not to a later tryAcquire
    EXPECT_FALSE(r.tryAcquire(1));
    sim.run();
    EXPECT_EQ(granted, 2);
    r.release();
    EXPECT_TRUE(r.tryAcquire(1));
}

} // namespace
} // namespace tpupoint
