/**
 * @file
 * The raw trace-event stream produced by the platform model. This is
 * the analogue of the event stream a Cloud TPU profile RPC delivers:
 * every host and device operator execution becomes one TraceEvent.
 */

#ifndef TPUPOINT_PROTO_EVENT_HH
#define TPUPOINT_PROTO_EVENT_HH

#include <cstdint>

#include "core/types.hh"

namespace tpupoint {

/** Which side of the PCIe boundary an event occurred on. */
enum class EventDevice : std::uint8_t { Host, Tpu };

/**
 * One operator execution. `type` is an interned operator-type label
 * ("MatMul", "fusion", "TransferBufferToInfeedLocked", ...) — the
 * granularity at which TPUPoint aggregates (Table II). Events carry
 * the TensorFlow global step so the analyzer can group them.
 */
struct TraceEvent
{
    /** Interned op-type label: the pointer must keep its text for
     * as long as any sink may see it (sinks key on the pointer). */
    const char *type = nullptr;
    SimTime start = 0;          ///< Start timestamp.
    SimTime duration = 0;       ///< Elapsed simulated time.
    StepId step = kNoStep;      ///< Global step, kNoStep if outside.
    EventDevice device = EventDevice::Host;
    bool mxu = false;           ///< Ran on the matrix units.

    /** Equivalent full-MXU activity time contributed by this op
     * (flops / board peak); the profiler's MXU-utilization metric
     * integrates this. */
    SimTime mxu_active = 0;

    /** End timestamp. */
    SimTime end() const { return start + duration; }
};

/**
 * Consumer of the event stream. The profiler's collector implements
 * this; tests use an in-memory implementation.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Deliver one event. Called in non-decreasing start order per
     * producer, but producers interleave. */
    virtual void record(const TraceEvent &event) = 0;
};

/** A sink that drops everything (profiling disabled). */
class NullTraceSink : public TraceSink
{
  public:
    void record(const TraceEvent &) override {}
};

/**
 * Fan-in point between the platform model and the profiler. Every
 * producer records into the hub; the profiler attaches and detaches
 * without the producers noticing. With nothing attached, events are
 * counted and dropped (profiling off costs almost nothing).
 */
class TraceHub : public TraceSink
{
  public:
    void
    record(const TraceEvent &event) override
    {
        ++count;
        if (target)
            target->record(event);
    }

    /** Attach (or detach with nullptr) the downstream sink. */
    void attach(TraceSink *sink) { target = sink; }

    /** Currently attached sink, or nullptr. */
    TraceSink *attached() const { return target; }

    /** Events that passed through, attached or not. */
    std::uint64_t totalEvents() const { return count; }

  private:
    TraceSink *target = nullptr;
    std::uint64_t count = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_PROTO_EVENT_HH
