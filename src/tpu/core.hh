/**
 * @file
 * The TPU core executor: runs one StepSchedule per training step,
 * pulling batches from the infeed queue and pushing results through
 * the outfeed. Idle time (stalls at either queue) and MXU activity
 * are accounted here and surface in profile records — they are
 * emergent properties of the host/device balance, not configured
 * numbers.
 *
 * Operator costs depend only on the op and the device, so a
 * schedule is priced once (PricedSchedule) and every step replays
 * that table: the per-step work is queue hand-offs and one sink
 * call per run of operators, not a roofline evaluation or an event
 * per operator.
 */

#ifndef TPUPOINT_TPU_CORE_HH
#define TPUPOINT_TPU_CORE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/schedule.hh"
#include "proto/event.hh"
#include "sim/simulator.hh"
#include "tpu/queues.hh"
#include "tpu/spec.hh"

namespace tpupoint {

/** How a segment of a priced schedule executes. */
enum class PricedKind : std::uint8_t
{
    Run,     ///< Regular operators, back to back.
    Infeed,  ///< Waits for a host batch, then stages it into HBM.
    Outfeed, ///< Enqueues its result, then pushes it to the host.
};

/** A stretch of a priced schedule that executes as one unit: a
 * maximal run of regular operators, or one infeed or outfeed. */
struct PricedSegment
{
    /** Run: its operators, [first, last) of PricedSchedule's op
     * table, and its label summary, [labels_first, labels_last). */
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint32_t labels_first = 0;
    std::uint32_t labels_last = 0;
    /** Run: the sum of its operators' base durations. Outfeed: the
     * enqueue time of its result. Unused for an infeed, whose
     * staging time depends on the batch. */
    SimTime base = 0;
    SimTime mxu_active = 0; ///< Run: summed mxuActiveTime.
    /** Outfeed: bytes pushed to the host. */
    std::uint64_t result_bytes = 0;
    PricedKind kind = PricedKind::Run;
};

/**
 * A StepSchedule priced for one device: every regular operator's
 * duration (opDuration, without trace overhead), MXU time and
 * label, computed once, in one op table; the schedule cut into
 * segments; and each run's label summary (appendRunLabels), so a
 * retiring run goes to the sink as one TraceRun. Self-contained —
 * it keeps no reference to the schedule it was built from. The
 * owner keeps one per (schedule, device) for as long as steps run
 * on it; nothing caches tables by schedule address, since a freed
 * schedule's address can come back holding a different schedule.
 */
class PricedSchedule
{
  public:
    PricedSchedule() = default;
    PricedSchedule(const StepSchedule &schedule,
                   const TpuDeviceSpec &device);

    std::span<const PricedSegment> segments() const { return parts; }

    /** Operators of run segment @p run. */
    std::span<const RunOp>
    ops(const PricedSegment &run) const
    {
        return std::span<const RunOp>(table).subspan(
            run.first, run.last - run.first);
    }

    /** Label summary of run segment @p run. */
    std::span<const RunLabel>
    labels(const PricedSegment &run) const
    {
        return std::span<const RunLabel>(summaries)
            .subspan(run.labels_first,
                     run.labels_last - run.labels_first);
    }

  private:
    std::vector<RunOp> table; ///< Regular operators, in order.
    std::vector<RunLabel> summaries;
    std::vector<PricedSegment> parts;
};

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
     * VII-C measures it at under 10%). A run of regular operators
     * takes the overhead in force when it starts, so a change lands
     * at the next run.
     */
    void setTraceOverhead(SimTime per_op) { trace_overhead = per_op; }

    /** Current per-op instrumentation cost. */
    SimTime traceOverhead() const { return trace_overhead; }

    /** Price @p schedule for this core's device. */
    PricedSchedule price(const StepSchedule &schedule) const
    {
        return PricedSchedule(schedule, device);
    }

    /**
     * Execute @p schedule (priced for this core's device, and kept
     * alive until @p done fires) as global step @p step.
     * Asynchronous: @p done fires when the last operator (and
     * outfeed push) retires. Only one step may be in flight at a
     * time.
     */
    void runStep(const PricedSchedule &schedule, StepId step,
                 Done done);

    /** Device counters. */
    const Counters &counters() const { return stats; }

    /** Device specification. */
    const TpuDeviceSpec &spec() const { return device; }

  private:
    void execute(const PricedSchedule *schedule, std::size_t segment,
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
};

} // namespace tpupoint

#endif // TPUPOINT_TPU_CORE_HH
