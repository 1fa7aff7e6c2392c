/**
 * @file Randomized model-based tests: the event queue against a
 * sorted reference, and the bounded queue against a plain deque
 * model, under thousands of seeded random operations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/rng.hh"
#include "sim/bounded_queue.hh"
#include "sim/event_queue.hh"

namespace tpupoint {
namespace {

/** EventQueue behaves like a stable sort by (time, insertion). */
class EventQueueModelProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueModelProperty, MatchesStableSortReference)
{
    Rng rng(GetParam());
    EventQueue queue;
    struct Expected
    {
        SimTime when;
        std::uint64_t order;
        int tag;
        EventId id;
        bool cancelled = false;
    };
    std::vector<Expected> reference;
    std::vector<int> fired;

    for (int i = 0; i < 500; ++i) {
        const SimTime when =
            static_cast<SimTime>(rng.nextBounded(100));
        const int tag = i;
        const EventId id = queue.schedule(
            when, [&fired, tag] { fired.push_back(tag); });
        reference.push_back(
            {when, static_cast<std::uint64_t>(i), tag, id});
    }
    // Cancel ~20% at random.
    for (auto &entry : reference) {
        if (rng.bernoulli(0.2)) {
            EXPECT_TRUE(queue.cancel(entry.id));
            entry.cancelled = true;
        }
    }

    while (!queue.empty())
        queue.pop().second();

    std::vector<Expected> live;
    for (const auto &entry : reference)
        if (!entry.cancelled)
            live.push_back(entry);
    std::stable_sort(live.begin(), live.end(),
                     [](const Expected &a, const Expected &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(fired.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        EXPECT_EQ(fired[i], live[i].tag);
}

TEST_P(EventQueueModelProperty, InterleavedMatchesStableSortReference)
{
    // Schedule, cancel and pop mixed at random, with every pop
    // checked against the stable-sort order of the live events,
    // then a drain whose callbacks schedule more events at the
    // current timestamp (they must fire after the ones already
    // queued there).
    Rng rng(GetParam());
    EventQueue queue;
    struct Expected
    {
        SimTime when;
        std::uint64_t order;
        int tag;
        EventId id;
    };
    std::vector<Expected> live;
    std::vector<EventId> retired; ///< Ids of fired or cancelled events.
    std::vector<int> fired;
    std::uint64_t order = 0;
    SimTime now = 0;
    int next_tag = 0;
    bool draining = false;

    std::function<void(SimTime)> add = [&](SimTime when) {
        const int tag = next_tag++;
        const EventId id = queue.schedule(when, [&, tag] {
            fired.push_back(tag);
            if (draining && rng.nextBounded(3) == 0 && next_tag < 2000)
                add(now); // same timestamp, mid-drain
        });
        live.push_back({when, order++, tag, id});
    };
    const auto expectedNext = [&]() {
        return std::min_element(
            live.begin(), live.end(),
            [](const Expected &a, const Expected &b) {
                return a.when != b.when ? a.when < b.when
                                        : a.order < b.order;
            });
    };
    const auto popOne = [&]() {
        const auto want = expectedNext();
        const int tag = want->tag;
        retired.push_back(want->id);
        live.erase(want);
        auto [when, fn] = queue.pop();
        now = when;
        const std::size_t before = fired.size();
        fn();
        ASSERT_GT(fired.size(), before);
        EXPECT_EQ(fired[before], tag);
    };

    for (int i = 0; i < 1500; ++i) {
        const std::uint64_t op = rng.nextBounded(10);
        if (op < 5) {
            // Mostly near the clock, often exactly on it.
            add(now + static_cast<SimTime>(rng.nextBounded(3) == 0
                                               ? 0
                                               : rng.nextBounded(40)));
        } else if (op < 7 && (!live.empty() || !retired.empty())) {
            if (!live.empty() && rng.nextBounded(4) != 0) {
                const std::size_t pick = rng.nextBounded(live.size());
                EXPECT_TRUE(queue.cancel(live[pick].id));
                retired.push_back(live[pick].id);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            } else if (!retired.empty()) {
                // A stale id (its slot may be reused) is a no-op.
                EXPECT_FALSE(queue.cancel(
                    retired[rng.nextBounded(retired.size())]));
            }
        } else if (!live.empty()) {
            popOne();
        }
        ASSERT_EQ(queue.size(), live.size());
        ASSERT_FALSE(HasFailure());
    }
    draining = true;
    while (!live.empty()) {
        popOne();
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_TRUE(queue.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

/** BoundedQueue delivers every item exactly once, in FIFO order,
 * never holding more than its capacity. */
class BoundedQueueModelProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BoundedQueueModelProperty, FifoExactlyOnceWithinCapacity)
{
    Rng rng(GetParam());
    Simulator sim;
    const std::size_t capacity = 1 + rng.nextBounded(5);
    BoundedQueue<int> queue(sim, capacity);

    const int total = 300;
    std::vector<int> received;

    // Producer: push items back to back; randomized think time.
    std::function<void(int)> produce = [&](int value) {
        if (value >= total)
            return;
        const SimTime think =
            static_cast<SimTime>(rng.nextBounded(4));
        sim.schedule(think, [&, value] {
            queue.push(value,
                       [&produce, value] { produce(value + 1); });
        });
    };
    // Consumer: randomized service time.
    std::function<void()> consume = [&]() {
        queue.pop([&](int value) {
            EXPECT_LE(queue.size(), capacity);
            received.push_back(value);
            if (static_cast<int>(received.size()) < total) {
                const SimTime service =
                    static_cast<SimTime>(rng.nextBounded(6));
                sim.schedule(service, consume);
            }
        });
    };
    produce(0);
    consume();
    sim.run();

    ASSERT_EQ(received.size(), static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i)
        EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedQueueModelProperty,
                         ::testing::Values(11, 22, 33, 44, 55,
                                           66));

} // namespace
} // namespace tpupoint
