/** @file Event-queue ordering, ties and cancellation. */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"

namespace tpupoint {
namespace {

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTime(), kTimeForever);
}

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) {
        auto [when, fn] = q.pop();
        fn();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().second();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelRemovesEvent)
{
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(1, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelMiddleEventSkipsIt)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    const EventId id = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.cancel(id);
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled)
{
    EventQueue q;
    const EventId early = q.schedule(1, [] {});
    q.schedule(9, [] {});
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), 9);
}

TEST(EventQueueTest, PopEmptyPanics)
{
    EventQueue q;
    EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueueTest, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(0, EventQueue::Callback{}),
                 std::logic_error);
}

TEST(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue q;
    const EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.pop();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, IdsAreNeverZero)
{
    // Recycle slots through fire and cancel: every id, first issue
    // or reuse, stays nonzero (callers use 0 for "no event").
    EventQueue q;
    for (int round = 0; round < 50; ++round) {
        std::vector<EventId> ids;
        for (int i = 0; i < 8; ++i) {
            ids.push_back(q.schedule(round, [] {}));
            EXPECT_NE(ids.back(), EventId{0});
        }
        for (std::size_t i = 0; i < ids.size(); i += 2)
            q.cancel(ids[i]);
        while (!q.empty())
            q.pop();
    }
    EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueueTest, StaleIdAfterSlotReuseCancelsNothing)
{
    for (const bool fire : {true, false}) {
        SCOPED_TRACE(fire ? "first event fired" : "first cancelled");
        EventQueue q;
        const EventId stale = q.schedule(1, [] {});
        if (fire)
            q.pop();
        else
            q.cancel(stale);
        bool fired = false;
        const EventId fresh = q.schedule(2, [&] { fired = true; });
        // The low half of an id names its slot: the new event
        // reuses the freed one under a new generation.
        EXPECT_EQ(static_cast<std::uint32_t>(fresh),
                  static_cast<std::uint32_t>(stale));
        EXPECT_NE(fresh, stale);
        EXPECT_FALSE(q.cancel(stale));
        ASSERT_EQ(q.size(), 1u);
        q.pop().second();
        EXPECT_TRUE(fired);
    }
}

TEST(EventQueueTest, DoubleCancelReturnsFalse)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    const EventId id = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    // A fired event cannot be cancelled either.
    const EventId fired = q.schedule(4, [] {});
    q.pop();
    EXPECT_FALSE(q.cancel(fired));
}

} // namespace
} // namespace tpupoint
