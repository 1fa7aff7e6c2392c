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
        return PricedKind::Regular;
    }
}

} // namespace

PricedSchedule::PricedSchedule(const StepSchedule &schedule,
                               const TpuDeviceSpec &device)
    : table(schedule.ops.size())
{
    // Back to front, so each regular op can carry the totals from
    // itself to the end of its run.
    std::uint32_t run_end = static_cast<std::uint32_t>(table.size());
    SimTime run_base = 0;
    SimTime run_mxu_active = 0;
    for (std::size_t i = table.size(); i-- > 0;) {
        const ScheduledOp &op = schedule.ops[i];
        PricedOp &priced = table[i];
        priced.type = op.typeName();
        priced.kind = pricedKind(op.kind);
        priced.mxu = op.mxu;
        if (priced.kind != PricedKind::Regular) {
            if (priced.kind == PricedKind::Outfeed) {
                priced.result_bytes =
                    op.bytes ? op.bytes : schedule.outfeed_bytes;
                priced.base = hbmTime(device, priced.result_bytes) +
                    device.op_overhead;
            }
            run_end = static_cast<std::uint32_t>(i);
            run_base = 0;
            run_mxu_active = 0;
            continue;
        }
        priced.base = opDuration(device, op);
        priced.mxu_active = mxuActiveTime(device, op);
        run_base += priced.base;
        run_mxu_active += priced.mxu_active;
        priced.run_base = run_base;
        priced.run_mxu_active = run_mxu_active;
        priced.run_end = run_end;
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
TpuCore::execute(const PricedSchedule *schedule, std::size_t index,
                 StepId step)
{
    const std::span<const PricedOp> ops = schedule->ops();
    if (index >= ops.size()) {
        step_in_flight = false;
        ++stats.steps_completed;
        // Moved out first: the continuation may start the next step.
        Done done = std::move(step_done);
        if (done)
            done();
        return;
    }

    const PricedOp &op = ops[index];

    if (op.kind == PricedKind::Infeed) {
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

    if (op.kind == PricedKind::Outfeed) {
        const SimTime start = sim.now();
        sim.schedule(op.base, [this, schedule, index, step, start]() {
            const PricedOp &out = schedule->ops()[index];
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
    // their events once the run retires. The overhead in force now
    // prices the whole run; each event starts where the previous
    // one ended, so timestamps are exact integer sums.
    const SimTime overhead = trace_overhead;
    const std::size_t count = op.run_end - index;
    const SimTime total =
        op.run_base + static_cast<SimTime>(count) * overhead;
    stats.mxu_active += op.run_mxu_active;
    const SimTime start = sim.now();
    sim.schedule(total, [this, schedule, index, step, start, total,
                         overhead]() {
        const std::span<const PricedOp> run = schedule->ops();
        const std::size_t next = run[index].run_end;
        if (sink) {
            SimTime cursor = start;
            for (std::size_t i = index; i < next; ++i) {
                const PricedOp &e = run[i];
                const SimTime duration = e.base + overhead;
                emit(e.type, cursor, duration, step, e.mxu,
                     e.mxu_active);
                cursor += duration;
            }
        }
        stats.busy += total;
        stats.ops_executed += next - index;
        execute(schedule, next, step);
    });
}

} // namespace tpupoint
