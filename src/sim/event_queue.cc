#include "sim/event_queue.hh"

#include <algorithm>

#include "core/logging.hh"

namespace tpupoint {

namespace {

/** Heap order: the earliest timestamp, then the earliest insertion,
 * sits on top. */
template <typename Entry>
bool
later(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.sequence > b.sequence;
}

} // namespace

EventId
EventQueue::schedule(SimTime when, Callback fn)
{
    if (!fn)
        panic("EventQueue::schedule: null callback");
    std::uint32_t slot = free_head;
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    } else {
        free_head = slots[slot].next_free;
    }
    Slot &entry = slots[slot];
    entry.fn = std::move(fn);
    heap.push_back(Entry{when, next_sequence++, slot, entry.generation});
    std::push_heap(heap.begin(), heap.end(), later<Entry>);
    ++live;
    return (EventId{entry.generation} << 32) | slot;
}

void
EventQueue::release(std::uint32_t slot)
{
    Slot &entry = slots[slot];
    entry.fn = nullptr;
    // Generation 0 is never issued: ids stay nonzero after a wrap.
    if (++entry.generation == 0)
        entry.generation = 1;
    entry.next_free = free_head;
    free_head = slot;
    --live;
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots.size() || slots[slot].generation != generation ||
        !slots[slot].fn)
        return false;
    // The heap entry stays behind as a tombstone: its generation no
    // longer matches the slot's. A tombstone on top is purged now.
    release(slot);
    purgeDead();
    return true;
}

void
EventQueue::purgeDead()
{
    while (!heap.empty() &&
           heap.front().generation != slots[heap.front().slot].generation) {
        std::pop_heap(heap.begin(), heap.end(), later<Entry>);
        heap.pop_back();
    }
}

SimTime
EventQueue::nextTime() const
{
    return heap.empty() ? kTimeForever : heap.front().when;
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::pop()
{
    if (heap.empty())
        panic("EventQueue::pop on an empty queue");
    std::pop_heap(heap.begin(), heap.end(), later<Entry>);
    const Entry entry = heap.back();
    heap.pop_back();
    Callback fn = std::move(slots[entry.slot].fn);
    release(entry.slot);
    purgeDead();
    return {entry.when, std::move(fn)};
}

} // namespace tpupoint
