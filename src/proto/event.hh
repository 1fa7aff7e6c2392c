/**
 * @file
 * The raw trace-event stream produced by the platform model. This is
 * the analogue of the event stream a Cloud TPU profile RPC delivers:
 * every host and device operator execution becomes one TraceEvent.
 * A run of back-to-back device operators may arrive as one
 * TraceRun, which stands for exactly the events it expands to.
 */

#ifndef TPUPOINT_PROTO_EVENT_HH
#define TPUPOINT_PROTO_EVENT_HH

#include <cstdint>
#include <span>
#include <vector>

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

/** One operator of a TraceRun, priced for its device. */
struct RunOp
{
    const char *type = nullptr; ///< Interned label, as TraceEvent.
    /** Duration without the run's per-op overhead; never negative. */
    SimTime base = 0;
    SimTime mxu_active = 0; ///< As TraceEvent::mxu_active.
    bool mxu = false;
};

/** One label's share of a TraceRun. */
struct RunLabel
{
    const char *type = nullptr;
    std::uint64_t count = 0; ///< Ops of the run with this label.
    SimTime base = 0;        ///< Their summed RunOp::base.
};

/**
 * Append the label summary of @p ops to @p out: one RunLabel per
 * distinct label pointer, in first-seen order.
 */
inline void
appendRunLabels(std::span<const RunOp> ops, std::vector<RunLabel> &out)
{
    const std::size_t first = out.size();
    for (const RunOp &op : ops) {
        std::size_t i = first;
        while (i < out.size() && out[i].type != op.type)
            ++i;
        if (i == out.size())
            out.push_back({op.type, 0, 0});
        ++out[i].count;
        out[i].base += op.base;
    }
}

/**
 * A run of operators executed back to back on one device in one
 * step. It stands for one TraceEvent per op, in op order: the first
 * starts at `start`, each lasts `base + overhead` and starts where
 * the previous one ended. `labels`, `duration` and `mxu_active`
 * summarize `ops` and must agree with them.
 */
struct TraceRun
{
    SimTime start = 0;
    SimTime overhead = 0; ///< Added to every op's base.
    StepId step = kNoStep;
    EventDevice device = EventDevice::Tpu;
    std::span<const RunOp> ops;
    std::span<const RunLabel> labels; ///< appendRunLabels of `ops`.
    SimTime duration = 0;   ///< Sum of base, plus ops * overhead.
    SimTime mxu_active = 0; ///< Sum of the ops' mxu_active.

    /** End of the last op. */
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

    /**
     * Deliver a run of events. The default expands it into one
     * record() call per op, in order; a sink that can fold the run
     * whole overrides this and must end in the same state.
     */
    virtual void
    recordRun(const TraceRun &run)
    {
        TraceEvent event;
        event.start = run.start;
        event.step = run.step;
        event.device = run.device;
        for (const RunOp &op : run.ops) {
            event.type = op.type;
            event.duration = op.base + run.overhead;
            event.mxu = op.mxu;
            event.mxu_active = op.mxu_active;
            record(event);
            event.start += event.duration;
        }
    }
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

    void
    recordRun(const TraceRun &run) override
    {
        count += run.ops.size();
        if (target)
            target->recordRun(run);
    }

    /** Attach (or detach with nullptr) the downstream sink. */
    void attach(TraceSink *sink) { target = sink; }

    /** Currently attached sink, or nullptr. */
    TraceSink *attached() const { return target; }

    /** Events that passed through, attached or not; a run counts
     * one per op. */
    std::uint64_t totalEvents() const { return count; }

  private:
    TraceSink *target = nullptr;
    std::uint64_t count = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_PROTO_EVENT_HH
