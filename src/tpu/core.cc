#include "tpu/core.hh"

#include <utility>

#include "core/logging.hh"
#include "tpu/timing.hh"

namespace tpupoint {

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
TpuCore::runStep(const StepSchedule &schedule, StepId step, Done done)
{
    if (step_in_flight)
        panic("TpuCore::runStep: a step is already in flight");
    step_in_flight = true;
    step_done = std::move(done);
    execute(&schedule, 0, step);
}

void
TpuCore::execute(const StepSchedule *schedule, std::size_t index,
                 StepId step)
{
    const auto &ops = schedule->ops;
    if (index >= ops.size()) {
        step_in_flight = false;
        ++stats.steps_completed;
        // Moved out first: the continuation may start the next step.
        Done done = std::move(step_done);
        if (done)
            done();
        return;
    }

    const ScheduledOp &op = ops[index];

    if (op.kind == OpKind::InfeedDequeueTuple ||
        op.kind == OpKind::Infeed) {
        // Wait for the host to deliver the batch; stall time is TPU
        // idle and appears in profiles as an `Infeed` event.
        const SimTime wait_start = sim.now();
        infeed.pop([this, schedule, index, step,
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
            sim.schedule(stage, [this, schedule, index, step, start,
                                 stage]() {
                emit(opKindName(OpKind::InfeedDequeueTuple), start,
                     stage, step, false);
                stats.busy += stage;
                ++stats.ops_executed;
                execute(schedule, index + 1, step);
            });
        });
        return;
    }

    if (op.kind == OpKind::OutfeedEnqueueTuple ||
        op.kind == OpKind::Outfeed) {
        const std::uint64_t result_bytes =
            op.bytes ? op.bytes : schedule->outfeed_bytes;
        const SimTime enqueue =
            hbmTime(device, result_bytes) + device.op_overhead;
        const SimTime start = sim.now();
        sim.schedule(enqueue, [this, schedule, index, step, start,
                               enqueue, result_bytes]() {
            emit(opKindName(OpKind::OutfeedEnqueueTuple), start,
                 enqueue, step, false);
            stats.busy += enqueue;
            ++stats.ops_executed;
            // Push the result; a full outfeed stalls the device.
            const SimTime push_start = sim.now();
            StepResult result;
            result.step = step;
            result.bytes = result_bytes;
            result.tpu_finished = sim.now();
            outfeed.push(result, [this, schedule, index, step,
                                  push_start]() {
                const SimTime wait = sim.now() - push_start;
                if (wait > 0) {
                    emit(opKindName(OpKind::Outfeed), push_start,
                         wait, step, false);
                    stats.idle += wait;
                }
                execute(schedule, index + 1, step);
            });
        });
        return;
    }

    // A run of regular operators: execute back to back, then emit
    // their events once the run retires (timestamps are exact).
    run_events.clear();
    SimTime cursor = sim.now();
    std::size_t next = index;
    while (next < ops.size()) {
        const ScheduledOp &run_op = ops[next];
        if (run_op.kind == OpKind::InfeedDequeueTuple ||
            run_op.kind == OpKind::Infeed ||
            run_op.kind == OpKind::OutfeedEnqueueTuple ||
            run_op.kind == OpKind::Outfeed)
            break;
        const SimTime duration =
            opDuration(device, run_op) + trace_overhead;
        const SimTime active = mxuActiveTime(device, run_op);
        run_events.push_back(PendingEvent{run_op.typeName(), cursor,
                                          duration, run_op.mxu,
                                          active});
        cursor += duration;
        stats.mxu_active += active;
        ++next;
    }

    const SimTime total = cursor - sim.now();
    sim.schedule(total, [this, schedule, next, step, total]() {
        for (const auto &e : run_events)
            emit(e.type, e.start, e.duration, step, e.mxu,
                 e.mxu_active);
        stats.busy += total;
        stats.ops_executed += run_events.size();
        execute(schedule, next, step);
    });
}

} // namespace tpupoint
