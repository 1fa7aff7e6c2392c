/**
 * @file
 * The discrete-event simulator driving the Cloud-TPU platform model.
 * Single-threaded and fully deterministic: events at the same
 * timestamp fire in scheduling order.
 */

#ifndef TPUPOINT_SIM_SIMULATOR_HH
#define TPUPOINT_SIM_SIMULATOR_HH

#include <cstdint>

#include "core/types.hh"
#include "sim/event_queue.hh"

namespace tpupoint {

/**
 * Event-driven simulation kernel. Entities (host pipeline stages,
 * infeed transfer, TPU cores) schedule callbacks against this clock.
 */
class Simulator
{
  public:
    using Callback = EventQueue::Callback;

    /** Current simulated time. */
    SimTime now() const { return current_time; }

    /**
     * Schedule @p fn to run @p delay nanoseconds from now.
     * @pre delay >= 0
     */
    EventId schedule(SimTime delay, Callback fn);

    /**
     * Schedule @p fn at an absolute timestamp.
     * @pre when >= now()
     */
    EventId scheduleAt(SimTime when, Callback fn);

    /** Cancel a pending event; true if it had not fired yet. */
    bool cancel(EventId id);

    /**
     * Run until the event set drains or stop() is called.
     * @return number of events executed.
     */
    std::uint64_t run();

    /**
     * Run until simulated time would exceed @p deadline. Events
     * stamped exactly at the deadline still execute; the clock then
     * rests at the deadline if work remains.
     * @return number of events executed.
     */
    std::uint64_t runUntil(SimTime deadline);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stop_requested = true; }

    /** True when no events are pending. */
    bool idle() const { return events.empty(); }

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t eventsExecuted() const { return executed; }

  private:
    EventQueue events;
    SimTime current_time = 0;
    bool stop_requested = false;
    std::uint64_t executed = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_SIMULATOR_HH
