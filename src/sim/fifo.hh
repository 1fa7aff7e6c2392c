/**
 * @file
 * A FIFO over a ring buffer that grows by doubling and never
 * shrinks. The simulator's waiter and hand-off queues carry a steady
 * trickle of items; std::deque would allocate and free a block every
 * few items of that traffic, while this ring stops allocating once
 * it has grown to the queue's high-water mark.
 */

#ifndef TPUPOINT_SIM_FIFO_HH
#define TPUPOINT_SIM_FIFO_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace tpupoint {

/** First-in first-out queue of default-constructible, movable T. */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return count == 0; }

    std::size_t size() const { return count; }

    /** @pre !empty() */
    T &front() { return ring[head]; }

    void
    push_back(T item)
    {
        if (count == ring.size())
            grow();
        ring[(head + count) & (ring.size() - 1)] = std::move(item);
        ++count;
    }

    /** Drop the front item. @pre !empty() */
    void
    pop_front()
    {
        ring[head] = T(); // release what the item still holds
        head = (head + 1) & (ring.size() - 1);
        --count;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(8, 2 * ring.size()));
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
        ring.swap(bigger);
        head = 0;
    }

    std::vector<T> ring; ///< Size is zero or a power of two.
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_FIFO_HH
