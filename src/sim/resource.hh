/**
 * @file
 * A counted resource with FIFO waiters: models the host worker
 * thread pool, the PCIe channel and other contended units.
 */

#ifndef TPUPOINT_SIM_RESOURCE_HH
#define TPUPOINT_SIM_RESOURCE_HH

#include "core/logging.hh"
#include "sim/fifo.hh"
#include "sim/simulator.hh"

namespace tpupoint {

/**
 * N interchangeable units. acquire() invokes its continuation when a
 * unit is granted; tryAcquire() takes several free units at once;
 * release() returns one.
 */
class Resource
{
  public:
    using Granted = InlineFunction<void()>;

    /**
     * @param simulator The owning simulation kernel.
     * @param units Number of units; must be positive.
     */
    Resource(Simulator &simulator, std::size_t units)
        : sim(simulator), total_units(units), free_units(units)
    {
        if (units == 0)
            fatal("Resource requires at least one unit");
    }

    Resource(const Resource &) = delete;
    Resource &operator=(const Resource &) = delete;

    /** Request one unit; @p fn runs when the unit is granted. */
    void
    acquire(Granted fn)
    {
        if (free_units > 0) {
            --free_units;
            sim.schedule(0, std::move(fn));
        } else {
            waiters.push_back(std::move(fn));
        }
    }

    /**
     * Take @p units units at once, with no grant event, when that
     * many are free; otherwise take nothing. A waiter queues only
     * while no unit is free, so this never passes one. Each unit
     * taken goes back through its own release().
     * @return true when the units were taken.
     */
    bool
    tryAcquire(std::size_t units)
    {
        if (free_units < units)
            return false;
        free_units -= units;
        return true;
    }

    /** Return one unit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters.empty()) {
            Granted fn = std::move(waiters.front());
            waiters.pop_front();
            sim.schedule(0, std::move(fn));
            return;
        }
        if (free_units >= total_units)
            panic("Resource::release: more releases than acquires");
        ++free_units;
    }

    /** Units not currently held. */
    std::size_t freeUnits() const { return free_units; }

    /** Total configured units. */
    std::size_t totalUnits() const { return total_units; }

    /** Requests parked waiting for a unit. */
    std::size_t waiting() const { return waiters.size(); }

  private:
    Simulator &sim;
    std::size_t total_units;
    std::size_t free_units;
    Fifo<Granted> waiters;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_RESOURCE_HH
