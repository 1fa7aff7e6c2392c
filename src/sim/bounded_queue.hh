/**
 * @file
 * A bounded producer/consumer channel for the event-driven platform
 * model. Blocking semantics are expressed with continuations: a full
 * queue parks the producer's continuation, an empty queue parks the
 * consumer's. The infeed pipeline (host -> PCIe -> TPU) is built from
 * these, and TPU idle time *is* the time a consumer spends parked.
 */

#ifndef TPUPOINT_SIM_BOUNDED_QUEUE_HH
#define TPUPOINT_SIM_BOUNDED_QUEUE_HH

#include <utility>

#include "core/logging.hh"
#include "sim/fifo.hh"
#include "sim/simulator.hh"

namespace tpupoint {

/**
 * Bounded FIFO channel of a default-constructible T with
 * continuation-passing push/pop.
 * All handoffs are scheduled through the simulator at zero delay so
 * that callbacks never nest re-entrantly.
 *
 * A consumer's continuation and its item wait together in
 * `handoffs` rather than in one closure (a closure holding a PopDone
 * could never be stored inline), with the continuation of the
 * producer the same handoff accepts, if any. Each handoff schedules
 * one zero-delay event that runs both, in the order two back-to-back
 * events would (DESIGN §16): same-time events fire in scheduling
 * order and time never runs backwards, so the events fire in the
 * order the handoffs were queued.
 */
template <typename T>
class BoundedQueue
{
  public:
    using PushDone = InlineFunction<void()>;
    using PopDone = InlineFunction<void(T)>;

    /**
     * @param simulator The owning simulation kernel.
     * @param capacity Maximum buffered items; must be positive.
     */
    BoundedQueue(Simulator &simulator, std::size_t capacity)
        : sim(simulator), max_items(capacity)
    {
        if (capacity == 0)
            fatal("BoundedQueue capacity must be positive");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Offer an item. @p on_accepted fires (at zero simulated delay)
     * once the item has entered the queue — immediately when space
     * exists, or later when a consumer frees a slot.
     */
    void
    push(T item, PushDone on_accepted)
    {
        if (!waiting_consumers.empty()) {
            // Hand the item straight to the parked consumer.
            PopDone consumer = std::move(waiting_consumers.front());
            waiting_consumers.pop_front();
            deliver(std::move(consumer), std::move(item),
                    std::move(on_accepted), /*accepted_first=*/false);
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

    /**
     * Take an item. @p on_item fires once an item is available —
     * immediately when the queue is non-empty, or when the next
     * producer arrives.
     */
    void
    pop(PopDone on_item)
    {
        if (!items.empty()) {
            T item = std::move(items.front());
            items.pop_front();
            deliver(std::move(on_item), std::move(item),
                    admitParkedProducer(), /*accepted_first=*/true);
            return;
        }
        if (!waiting_producers.empty()) {
            // Capacity 0-in-flight case: producer parked on a full
            // queue can only happen when items is non-empty, so a
            // parked producer with an empty queue means direct
            // handoff.
            auto [item, done] = std::move(waiting_producers.front());
            waiting_producers.pop_front();
            deliver(std::move(on_item), std::move(item), std::move(done),
                    /*accepted_first=*/true);
            return;
        }
        waiting_consumers.push_back(std::move(on_item));
    }

    /** Items currently buffered (excludes parked producers). */
    std::size_t size() const { return items.size(); }

    /** True when no buffered items exist. */
    bool empty() const { return items.empty(); }

    /** True when the buffer is at capacity. */
    bool full() const { return items.size() >= max_items; }

    /** Configured capacity. */
    std::size_t capacity() const { return max_items; }

    /**
     * Retarget the capacity at runtime (the optimizer retunes
     * prefetch depths live). Growing admits parked producers;
     * shrinking strands no items — the buffer simply drains down.
     */
    void
    setCapacity(std::size_t new_capacity)
    {
        if (new_capacity == 0)
            fatal("BoundedQueue capacity must be positive");
        max_items = new_capacity;
        while (!waiting_producers.empty() &&
               items.size() < max_items) {
            completePush(admitParkedProducer());
        }
    }

    /** Number of producers parked on a full queue. */
    std::size_t blockedProducers() const
    {
        return waiting_producers.size();
    }

    /** Number of consumers parked on an empty queue. */
    std::size_t blockedConsumers() const
    {
        return waiting_consumers.size();
    }

  private:
    /** A consumer's item, and the producer the handoff accepts. */
    struct Handoff
    {
        PopDone consumer;
        T item;
        PushDone accepted;
        bool accepted_first = false;
    };

    /**
     * Hand @p item to @p consumer at zero delay, in the same event
     * as @p accepted: before the consumer when @p accepted_first,
     * after it otherwise.
     */
    void
    deliver(PopDone consumer, T item, PushDone accepted,
            bool accepted_first)
    {
        handoffs.push_back({std::move(consumer), std::move(item),
                            std::move(accepted), accepted_first});
        sim.schedule(0, [this]() {
            Handoff handoff = std::move(handoffs.front());
            handoffs.pop_front();
            if (handoff.accepted_first && handoff.accepted)
                handoff.accepted();
            handoff.consumer(std::move(handoff.item));
            if (!handoff.accepted_first && handoff.accepted)
                handoff.accepted();
        });
    }

    void
    completePush(PushDone done)
    {
        if (done)
            sim.schedule(0, std::move(done));
    }

    /**
     * A slot freed up: admit the oldest parked producer, if any.
     * @return its continuation, for the caller to run; empty when
     * no producer was admitted.
     */
    PushDone
    admitParkedProducer()
    {
        if (waiting_producers.empty() || items.size() >= max_items)
            return nullptr;
        auto [item, done] = std::move(waiting_producers.front());
        waiting_producers.pop_front();
        items.push_back(std::move(item));
        return std::move(done);
    }

    Simulator &sim;
    std::size_t max_items;
    Fifo<T> items;
    Fifo<std::pair<T, PushDone>> waiting_producers;
    Fifo<PopDone> waiting_consumers;
    Fifo<Handoff> handoffs;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_BOUNDED_QUEUE_HH
