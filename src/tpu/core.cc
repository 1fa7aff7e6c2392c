#include "tpu/core.hh"

#include <utility>

#include "core/logging.hh"
#include "tpu/timing.hh"

namespace tpupoint {

namespace {

PricedKind
pricedKind(OpKind kind)
{
    switch (kind) {
      case OpKind::InfeedDequeueTuple:
      case OpKind::Infeed:
        return PricedKind::Infeed;
      case OpKind::OutfeedEnqueueTuple:
      case OpKind::Outfeed:
        return PricedKind::Outfeed;
      default:
        return PricedKind::Run;
    }
}

} // namespace

PricedSchedule::PricedSchedule(const StepSchedule &schedule,
                               const TpuDeviceSpec &device)
{
    for (const ScheduledOp &op : schedule.ops) {
        const PricedKind kind = pricedKind(op.kind);
        if (kind != PricedKind::Run) {
            PricedSegment &feed = parts.emplace_back();
            feed.kind = kind;
            if (kind == PricedKind::Outfeed) {
                feed.result_bytes =
                    op.bytes ? op.bytes : schedule.outfeed_bytes;
                feed.base = hbmTime(device, feed.result_bytes) +
                    device.op_overhead;
            }
            continue;
        }
        if (parts.empty() || parts.back().kind != PricedKind::Run) {
            PricedSegment &run = parts.emplace_back();
            run.first = static_cast<std::uint32_t>(table.size());
        }
        PricedSegment &run = parts.back();
        const RunOp &priced = table.emplace_back(
            RunOp{op.typeName(), opDuration(device, op),
                  mxuActiveTime(device, op), op.mxu});
        run.last = static_cast<std::uint32_t>(table.size());
        run.base += priced.base;
        run.mxu_active += priced.mxu_active;
    }
    for (PricedSegment &run : parts) {
        if (run.kind != PricedKind::Run)
            continue;
        run.labels_first = static_cast<std::uint32_t>(summaries.size());
        appendRunLabels(ops(run), summaries);
        run.labels_last = static_cast<std::uint32_t>(summaries.size());
    }
}

TpuCore::TpuCore(Simulator &simulator,
                 const TpuDeviceSpec &device_spec,
                 InfeedQueue &infeed_queue,
                 OutfeedQueue &outfeed_queue)
    : sim(simulator), device(device_spec), infeed(infeed_queue),
      outfeed(outfeed_queue)
{
}

void
TpuCore::emit(const char *type, SimTime start, SimTime duration,
              StepId step, bool mxu, SimTime mxu_active)
{
    if (!sink)
        return;
    TraceEvent event;
    event.type = type;
    event.start = start;
    event.duration = duration;
    event.step = step;
    event.device = EventDevice::Tpu;
    event.mxu = mxu;
    event.mxu_active = mxu_active;
    sink->record(event);
}

void
TpuCore::runStep(const PricedSchedule &schedule, StepId step,
                 Done done)
{
    if (step_in_flight)
        panic("TpuCore::runStep: a step is already in flight");
    step_in_flight = true;
    step_done = std::move(done);
    execute(&schedule, 0, step);
}

void
TpuCore::execute(const PricedSchedule *schedule, std::size_t segment,
                 StepId step)
{
    const std::span<const PricedSegment> parts = schedule->segments();
    if (segment >= parts.size()) {
        step_in_flight = false;
        ++stats.steps_completed;
        // Moved out first: the continuation may start the next step.
        Done done = std::move(step_done);
        if (done)
            done();
        return;
    }

    const PricedSegment &part = parts[segment];

    if (part.kind == PricedKind::Infeed) {
        // Wait for the host to deliver the batch; stall time is TPU
        // idle and appears in profiles as an `Infeed` event.
        const SimTime wait_start = sim.now();
        infeed.pop([this, schedule, segment, step,
                    wait_start](DeviceBatch batch) {
            const SimTime wait = sim.now() - wait_start;
            if (wait > 0) {
                emit(opKindName(OpKind::Infeed), wait_start, wait,
                     step, false);
                stats.idle += wait;
            }
            // Stage the batch from the infeed buffer into HBM.
            const SimTime stage =
                hbmTime(device, batch.bytes) + device.op_overhead;
            const SimTime start = sim.now();
            sim.schedule(stage, [this, schedule, segment, step, start,
                                 stage]() {
                emit(opKindName(OpKind::InfeedDequeueTuple), start,
                     stage, step, false);
                stats.busy += stage;
                ++stats.ops_executed;
                execute(schedule, segment + 1, step);
            });
        });
        return;
    }

    if (part.kind == PricedKind::Outfeed) {
        const SimTime start = sim.now();
        sim.schedule(part.base, [this, schedule, segment, step,
                                 start]() {
            const PricedSegment &out = schedule->segments()[segment];
            emit(opKindName(OpKind::OutfeedEnqueueTuple), start,
                 out.base, step, false);
            stats.busy += out.base;
            ++stats.ops_executed;
            // Push the result; a full outfeed stalls the device.
            const SimTime push_start = sim.now();
            StepResult result;
            result.step = step;
            result.bytes = out.result_bytes;
            result.tpu_finished = sim.now();
            outfeed.push(result, [this, schedule, segment, step,
                                  push_start]() {
                const SimTime wait = sim.now() - push_start;
                if (wait > 0) {
                    emit(opKindName(OpKind::Outfeed), push_start,
                         wait, step, false);
                    stats.idle += wait;
                }
                execute(schedule, segment + 1, step);
            });
        });
        return;
    }

    // A run of regular operators: execute back to back, then hand
    // the sink the whole run once it retires. The overhead in force
    // now prices the whole run.
    const SimTime overhead = trace_overhead;
    const SimTime total = part.base +
        static_cast<SimTime>(part.last - part.first) * overhead;
    stats.mxu_active += part.mxu_active;
    const SimTime start = sim.now();
    sim.schedule(total, [this, schedule, segment, step, start, total,
                         overhead]() {
        const PricedSegment &run = schedule->segments()[segment];
        if (sink) {
            TraceRun trace;
            trace.start = start;
            trace.overhead = overhead;
            trace.step = step;
            trace.device = EventDevice::Tpu;
            trace.ops = schedule->ops(run);
            trace.labels = schedule->labels(run);
            trace.duration = total;
            trace.mxu_active = run.mxu_active;
            sink->recordRun(trace);
        }
        stats.busy += total;
        stats.ops_executed += run.last - run.first;
        execute(schedule, segment + 1, step);
    });
}

} // namespace tpupoint
