/**
 * @file
 * Pending-event set for the discrete-event simulator: a binary heap
 * ordered by (timestamp, insertion sequence) over a pool of callback
 * slots, with O(log n) insertion and lazy cancellation.
 */

#ifndef TPUPOINT_SIM_EVENT_QUEUE_HH
#define TPUPOINT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hh"
#include "sim/inline_function.hh"

namespace tpupoint {

/**
 * Opaque handle to a scheduled event, used for cancellation. The low
 * 32 bits name the event's slot and the high 32 bits the slot's
 * generation when it was scheduled. Generations start at 1, so no
 * issued id is 0 and callers may use 0 to mean "no event".
 */
using EventId = std::uint64_t;

/**
 * Time-ordered queue of callbacks. Events with equal timestamps fire
 * in insertion order, which makes simulations deterministic.
 *
 * Callbacks live in a pool of slots recycled through a free list;
 * the heap holds only (timestamp, sequence, slot, generation).
 * Firing or cancelling an event frees its slot and bumps the slot's
 * generation, so a cancelled event's heap entry becomes a tombstone
 * and an id that outlived its event matches nothing. Tombstones are
 * purged whenever they reach the top of the heap (after a pop or a
 * cancel), so the top entry is always live: one purge per popped
 * event, and nextTime() and pop() read the top as it stands.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /** Insert an event; returns a handle usable with cancel(). */
    EventId schedule(SimTime when, Callback fn);

    /**
     * Cancel a pending event.
     * @return true when the event existed and had not yet fired.
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return live; }

    /** Timestamp of the earliest live event; kTimeForever if none. */
    SimTime nextTime() const;

    /**
     * Remove and return the earliest live event.
     * @pre !empty()
     */
    std::pair<SimTime, Callback> pop();

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t sequence;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    struct Slot
    {
        Callback fn;
        std::uint32_t generation = 1;
        std::uint32_t next_free = 0;
    };

    /** Free @p slot: drop its callback, retire its generation. */
    void release(std::uint32_t slot);

    /** Discard cancelled entries from the top of the heap. */
    void purgeDead();

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    std::vector<Entry> heap;
    std::vector<Slot> slots;
    std::uint32_t free_head = kNoSlot; ///< Free-list head.
    std::uint64_t next_sequence = 0;
    std::size_t live = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_EVENT_QUEUE_HH
