/**
 * @file
 * Differential test of BoundedQueue's one-event handoff: a handoff
 * that also accepts a producer runs the consumer and the producer's
 * continuation from one zero-delay event, in the order two
 * back-to-back events would (DESIGN §16). The two-event queue it
 * replaced is kept below as the oracle; seeded producer/consumer
 * mixes must observe the same callbacks, times and queue states.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "sim/bounded_queue.hh"
#include "sim/fifo.hh"
#include "sim/simulator.hh"

namespace tpupoint {
namespace {

/** The queue before the merge: a consumer delivery and a producer
 * acceptance are two zero-delay events. */
template <typename T>
class TwoEventQueue
{
  public:
    using PushDone = InlineFunction<void()>;
    using PopDone = InlineFunction<void(T)>;

    TwoEventQueue(Simulator &simulator, std::size_t capacity)
        : sim(simulator), max_items(capacity)
    {
    }

    void
    push(T item, PushDone on_accepted)
    {
        if (!waiting_consumers.empty()) {
            PopDone consumer = std::move(waiting_consumers.front());
            waiting_consumers.pop_front();
            deliver(std::move(consumer), std::move(item));
            completePush(std::move(on_accepted));
            return;
        }
        if (items.size() < max_items) {
            items.push_back(std::move(item));
            completePush(std::move(on_accepted));
            return;
        }
        waiting_producers.push_back(
            {std::move(item), std::move(on_accepted)});
    }

    void
    pop(PopDone on_item)
    {
        if (!items.empty()) {
            T item = std::move(items.front());
            items.pop_front();
            admitParkedProducer();
            deliver(std::move(on_item), std::move(item));
            return;
        }
        if (!waiting_producers.empty()) {
            auto [item, done] = std::move(waiting_producers.front());
            waiting_producers.pop_front();
            completePush(std::move(done));
            deliver(std::move(on_item), std::move(item));
            return;
        }
        waiting_consumers.push_back(std::move(on_item));
    }

    std::size_t size() const { return items.size(); }

    void
    setCapacity(std::size_t new_capacity)
    {
        max_items = new_capacity;
        while (!waiting_producers.empty() && items.size() < max_items)
            admitParkedProducer();
    }

    std::size_t blockedProducers() const
    {
        return waiting_producers.size();
    }

    std::size_t blockedConsumers() const
    {
        return waiting_consumers.size();
    }

  private:
    void
    deliver(PopDone consumer, T item)
    {
        handoffs.push_back({std::move(consumer), std::move(item)});
        sim.schedule(0, [this]() {
            auto [fn, value] = std::move(handoffs.front());
            handoffs.pop_front();
            fn(std::move(value));
        });
    }

    void
    completePush(PushDone done)
    {
        if (done)
            sim.schedule(0, std::move(done));
    }

    void
    admitParkedProducer()
    {
        if (waiting_producers.empty() || items.size() >= max_items)
            return;
        auto [item, done] = std::move(waiting_producers.front());
        waiting_producers.pop_front();
        items.push_back(std::move(item));
        completePush(std::move(done));
    }

    Simulator &sim;
    std::size_t max_items;
    Fifo<T> items;
    Fifo<std::pair<T, PushDone>> waiting_producers;
    Fifo<PopDone> waiting_consumers;
    Fifo<std::pair<PopDone, T>> handoffs;
};

/** Per-actor delays drawn up front, so both queues see the same
 * inputs whatever order their callbacks run in. */
struct Plan
{
    std::size_t capacity = 1;
    std::vector<std::vector<SimTime>> think;   ///< Per producer.
    std::vector<std::vector<bool>> detached;   ///< Push without a
                                               ///< continuation.
    std::vector<std::vector<SimTime>> service; ///< Per consumer.
    std::vector<std::pair<SimTime, std::size_t>> resizes;
    std::vector<SimTime> probes;
};

struct Note
{
    enum Kind { Accepted, Consumed, Probe, Resized } kind;
    int actor;
    int item;
    SimTime time;
    std::size_t size;
    std::size_t blocked_producers;
    std::size_t blocked_consumers;

    bool operator==(const Note &other) const = default;
};

struct Observed
{
    std::vector<Note> notes;
    std::uint64_t events = 0;
};

constexpr int kItemsPerProducer = 60;

template <template <typename> class Queue>
Observed
drive(const Plan &plan)
{
    Simulator sim;
    Queue<int> queue(sim, plan.capacity);
    Observed observed;
    const auto note = [&](Note::Kind kind, int actor, int item) {
        observed.notes.push_back(Note{kind, actor, item, sim.now(),
                                      queue.size(),
                                      queue.blockedProducers(),
                                      queue.blockedConsumers()});
    };

    // A zero think or service time acts inside the callback itself,
    // so handoffs start from within other handoffs.
    const auto after = [&](SimTime delay, std::function<void()> fn) {
        if (delay == 0)
            fn();
        else
            sim.schedule(delay, std::move(fn));
    };
    std::function<void(int, int)> produce = [&](int p, int k) {
        if (k >= kItemsPerProducer)
            return;
        const auto index = static_cast<std::size_t>(k);
        const auto producer = static_cast<std::size_t>(p);
        const int item = p * 1000 + k;
        const SimTime think = plan.think[producer][index];
        if (plan.detached[producer][index]) {
            queue.push(item, nullptr);
            after(think + 1, [&, p, k] { produce(p, k + 1); });
            return;
        }
        queue.push(item, [&, p, k, item, think] {
            note(Note::Accepted, p, item);
            after(think, [&, p, k] { produce(p, k + 1); });
        });
    };
    std::function<void(int, std::size_t)> consume =
        [&](int c, std::size_t n) {
        const auto consumer = static_cast<std::size_t>(c);
        if (n >= plan.service[consumer].size())
            return;
        queue.pop([&, c, n](int item) {
            note(Note::Consumed, c, item);
            const SimTime service =
                plan.service[static_cast<std::size_t>(c)][n];
            after(service, [&, c, n] { consume(c, n + 1); });
        });
    };
    for (std::size_t i = 0; i < plan.resizes.size(); ++i) {
        sim.scheduleAt(plan.resizes[i].first, [&, i] {
            queue.setCapacity(plan.resizes[i].second);
            note(Note::Resized, -1, static_cast<int>(i));
        });
    }
    for (const SimTime at : plan.probes)
        sim.scheduleAt(at, [&] { note(Note::Probe, -1, -1); });
    for (std::size_t c = 0; c < plan.service.size(); ++c)
        consume(static_cast<int>(c), 0);
    for (std::size_t p = 0; p < plan.think.size(); ++p)
        produce(static_cast<int>(p), 0);
    sim.run();
    observed.events = sim.eventsExecuted();
    return observed;
}

Plan
makePlan(std::uint64_t seed)
{
    Rng rng(seed);
    Plan plan;
    plan.capacity = 1 + rng.nextBounded(3);
    const auto delay = [&rng](std::uint64_t bound) {
        // Often zero: same-time handoffs are the interesting case.
        return rng.bernoulli(0.4)
            ? 0 : static_cast<SimTime>(rng.nextBounded(bound));
    };
    const std::size_t producers = 1 + rng.nextBounded(3);
    const std::size_t consumers = 1 + rng.nextBounded(3);
    const std::size_t items = producers * kItemsPerProducer;
    for (std::size_t p = 0; p < producers; ++p) {
        plan.think.emplace_back();
        plan.detached.emplace_back();
        for (int k = 0; k < kItemsPerProducer; ++k) {
            plan.think.back().push_back(delay(8));
            plan.detached.back().push_back(rng.bernoulli(0.15));
        }
    }
    // The consumers take every item between them.
    for (std::size_t c = 0; c < consumers; ++c) {
        plan.service.emplace_back();
        const std::size_t share = items / consumers +
            (c < items % consumers ? 1 : 0);
        for (std::size_t n = 0; n < share; ++n)
            plan.service.back().push_back(delay(10));
    }
    for (int i = 0; i < 6; ++i) {
        plan.resizes.push_back({static_cast<SimTime>(rng.nextBounded(300)),
                                1 + rng.nextBounded(4)});
    }
    for (int i = 0; i < 80; ++i)
        plan.probes.push_back(static_cast<SimTime>(rng.nextBounded(400)));
    return plan;
}

TEST(BoundedQueueDifferential, OneEventHandoffMatchesTwoEventQueue)
{
    std::uint64_t events_saved = 0;
    std::size_t consumed = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Plan plan = makePlan(seed);
        const Observed merged = drive<BoundedQueue>(plan);
        const Observed oracle = drive<TwoEventQueue>(plan);
        const std::string label = "seed " + std::to_string(seed);
        ASSERT_EQ(merged.notes.size(), oracle.notes.size()) << label;
        for (std::size_t i = 0; i < merged.notes.size(); ++i) {
            const Note &a = merged.notes[i];
            const Note &b = oracle.notes[i];
            ASSERT_TRUE(a == b)
                << label << " note " << i << ": kind " << a.kind << "/"
                << b.kind << " actor " << a.actor << "/" << b.actor
                << " item " << a.item << "/" << b.item << " time "
                << a.time << "/" << b.time << " size " << a.size << "/"
                << b.size;
            consumed += a.kind == Note::Consumed;
        }
        ASSERT_LE(merged.events, oracle.events) << label;
        events_saved += oracle.events - merged.events;
    }
    EXPECT_GT(consumed, 0u);
    EXPECT_GT(events_saved, 0u);
}

} // namespace
} // namespace tpupoint
