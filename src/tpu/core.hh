/**
 * @file
 * The TPU core executor: runs one StepSchedule per training step,
 * pulling batches from the infeed queue and pushing results through
 * the outfeed. Idle time (stalls at either queue) and MXU activity
 * are accounted here and surface in profile records — they are
 * emergent properties of the host/device balance, not configured
 * numbers.
 */

#ifndef TPUPOINT_TPU_CORE_HH
#define TPUPOINT_TPU_CORE_HH

#include <cstdint>
#include <vector>

#include "graph/schedule.hh"
#include "proto/event.hh"
#include "sim/simulator.hh"
#include "tpu/queues.hh"
#include "tpu/spec.hh"

namespace tpupoint {

/**
 * Event-driven model of one Cloud TPU instance executing compiled
 * step programs.
 */
class TpuCore
{
  public:
    /** Continuation of a step. */
    using Done = InlineFunction<void()>;

    /** Cumulative device counters (profile meta-data source). */
    struct Counters
    {
        SimTime busy = 0;       ///< Time executing operators.
        SimTime idle = 0;       ///< Time stalled on infeed/outfeed.
        SimTime mxu_active = 0; ///< Equivalent full-MXU time.
        std::uint64_t steps_completed = 0;
        std::uint64_t ops_executed = 0;
    };

    /**
     * @param simulator Owning kernel.
     * @param device_spec Capability description (v2/v3).
     * @param infeed_queue Host-filled batch queue.
     * @param outfeed_queue Result queue drained by the host.
     */
    TpuCore(Simulator &simulator, const TpuDeviceSpec &device_spec,
            InfeedQueue &infeed_queue, OutfeedQueue &outfeed_queue);

    /** Route trace events to @p new_sink (profiler attach/detach). */
    void setSink(TraceSink *new_sink) { sink = new_sink; }

    /**
     * Extra per-op cost while profiling instrumentation is active
     * (the source of TPUPoint's small runtime overhead; Section
     * VII-C measures it at under 10%).
     */
    void setTraceOverhead(SimTime per_op) { trace_overhead = per_op; }

    /** Current per-op instrumentation cost. */
    SimTime traceOverhead() const { return trace_overhead; }

    /**
     * Execute @p schedule as global step @p step. Asynchronous: @p
     * done fires when the last operator (and outfeed push) retires.
     * Only one step may be in flight at a time.
     */
    void runStep(const StepSchedule &schedule, StepId step, Done done);

    /** Device counters. */
    const Counters &counters() const { return stats; }

    /** Device specification. */
    const TpuDeviceSpec &spec() const { return device; }

  private:
    /** An operator of the current run, emitted when the run retires. */
    struct PendingEvent
    {
        const char *type;
        SimTime start;
        SimTime duration;
        bool mxu;
        SimTime mxu_active;
    };

    void execute(const StepSchedule *schedule, std::size_t index,
                 StepId step);

    void emit(const char *type, SimTime start, SimTime duration,
              StepId step, bool mxu, SimTime mxu_active = 0);

    Simulator &sim;
    TpuDeviceSpec device;
    InfeedQueue &infeed;
    OutfeedQueue &outfeed;
    TraceSink *sink = nullptr;
    Counters stats;
    SimTime trace_overhead = 0;
    bool step_in_flight = false;
    /** The in-flight step's continuation (one step at a time, so
     * the operator closures need not carry it). */
    Done step_done;
    /** The in-flight run's operators; reused across runs. */
    std::vector<PendingEvent> run_events;
};

} // namespace tpupoint

#endif // TPUPOINT_TPU_CORE_HH
