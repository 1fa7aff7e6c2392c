#include "runtime/session.hh"

#include <algorithm>

#include "core/logging.hh"
#include "host/host_ops.hh"

namespace tpupoint {

namespace {

/** Steps at which an every-N boundary is crossed in (a, b]. */
std::uint64_t
boundariesCrossed(std::uint64_t a, std::uint64_t b, std::uint64_t n)
{
    if (n == 0)
        return 0;
    return b / n - a / n;
}

} // namespace

TrainingSession::TrainingSession(Simulator &simulator,
                                 const SessionConfig &session_config,
                                 const RuntimeWorkload &workload_def)
    : sim(simulator), config(session_config), work(workload_def),
      fault_plan(session_config.faults,
                 session_config.seed ^ 0x4641554c54ULL /* FAULT */),
      own_preempt(session_config.preemption,
                  session_config.seed ^ 0x505245454d50ULL /* PREEMP */),
      storage(simulator, session_config.storage),
      input(simulator, session_config.host, storage,
            workload_def.dataset, workload_def.batch_size,
            workload_def.train_schedule.infeed_bytes,
            session_config.pipeline, Rng(session_config.seed),
            &hub),
      infeed_q(simulator, 2),
      outfeed_q(simulator, 4),
      core(simulator, session_config.device, infeed_q, outfeed_q),
      infeed(simulator, input.output(), infeed_q,
             session_config.device.pcie_bandwidth, &hub),
      outfeed(simulator, outfeed_q,
              session_config.device.pcie_bandwidth, &hub),
      ckpt(simulator, storage, workload_def.model_bytes, &hub),
      train_priced(core.price(work.train_schedule)),
      eval_priced(core.price(work.eval_schedule))
{
    core.setSink(&hub);
    storage.setTraceSink(&hub);
    if (fault_plan.enabled())
        storage.injectFaults(&fault_plan, config.retry);
    next_step = config.start_step;
}

void
TrainingSession::emitHost(const char *type, SimTime start,
                          SimTime duration, StepId step)
{
    TraceEvent event;
    event.type = type;
    event.start = start;
    event.duration = duration;
    event.step = step;
    event.device = EventDevice::Host;
    hub.record(event);
}

std::uint64_t
TrainingSession::totalBatchesNeeded() const
{
    std::uint64_t end = work.schedule.train_steps;
    if (config.stop_at_step && config.stop_at_step < end)
        end = config.stop_at_step;
    const std::uint64_t start = config.start_step;
    const std::uint64_t train = end > start ? end - start : 0;
    std::uint64_t evals = 0;
    if (work.schedule.steps_per_eval && work.schedule.eval_steps) {
        evals = boundariesCrossed(start, end,
                                  work.schedule.steps_per_eval) *
            work.schedule.eval_steps;
    }
    return train + evals;
}

void
TrainingSession::start(std::function<void()> on_complete)
{
    completion = std::move(on_complete);
    initPhase();
}

void
TrainingSession::initPhase()
{
    // The init phase of a Cloud TPU job: system handshake, XLA
    // program compilation, then variable restore. All are charged
    // to the first step so the analyzer sees them as the leading
    // program phase.
    const StepId init_step = next_step;

    const double fixed_scale = work.fixed_cost_scale;
    const SimTime tpu_init = static_cast<SimTime>(
        8.0 * kSec * fixed_scale);
    const SimTime compile = static_cast<SimTime>(
        (1.0 * kSec + static_cast<double>(
             work.train_schedule.size()) * 12.0 * kMsec) *
        fixed_scale);

    const SimTime t0 = sim.now();
    emitHost(hostop::kConfigureDistributedTPU, t0, 500 * kMsec,
             init_step);
    sim.schedule(tpu_init, [this, init_step, t0, compile]() {
        emitHost(hostop::kInitializeHostForDistributedTpu, t0,
                 sim.now() - t0, init_step);
        const SimTime c0 = sim.now();
        sim.schedule(compile, [this, init_step, c0]() {
            emitHost(hostop::kStartProgram, c0, sim.now() - c0,
                     init_step);
            ckpt.restore(config.start_step, [this]() {
                // The init work above is charged to a setup
                // pseudo-step of its own; training steps start at
                // the next id, so phase detectors see a distinct
                // initialization phase the way real profiles do.
                ++next_step;
                // Host threads spin up and training begins.
                input.start(next_step, totalBatchesNeeded());
                infeed.start();
                outfeed.start([this](StepResult result) {
                    const SimTime step_time = last_step_end
                        ? sim.now() - last_step_end
                        : sim.now() - first_step_start;
                    last_step_end = sim.now();
                    last_completed_step = result.step;
                    if (step_cb)
                        step_cb(result.step, step_time);
                });
                first_step_start = sim.now();
                trainLoop();
            });
        });
    });
}

void
TrainingSession::runSteps(std::uint64_t count,
                          const PricedSchedule &schedule,
                          bool is_eval, std::function<void()> next)
{
    if (count == 0) {
        if (next)
            next();
        return;
    }
    const StepId step = next_step++;
    if (is_eval) {
        // Eval metrics are computed on the host from the outfed
        // tensors; these operators only ever appear in eval steps.
        emitHost(hostop::kArgMax, sim.now(), 120 * kUsec, step);
        emitHost(hostop::kEqual, sim.now(), 60 * kUsec, step);
        emitHost(hostop::kMean, sim.now(), 60 * kUsec, step);
        emitHost(hostop::kConcatV2, sim.now(), 80 * kUsec, step);
        emitHost(hostop::kSqueeze, sim.now(), 40 * kUsec, step);
    }
    // Capture the schedule by address: the session owns it.
    const PricedSchedule *sched = &schedule;
    core.runStep(schedule, step,
                 [this, count, sched, is_eval,
                  next = std::move(next)]() mutable {
        runSteps(count - 1, *sched, is_eval, std::move(next));
    });
}

void
TrainingSession::trainLoop()
{
    std::uint64_t end = work.schedule.train_steps;
    if (config.stop_at_step && config.stop_at_step < end)
        end = config.stop_at_step;
    const std::uint64_t gstep = config.start_step + train_done;
    if (gstep >= end) {
        finishRun();
        return;
    }

    // The host-loop join is the safe boundary for device
    // interruption: no step is in flight, so the session can stop
    // with an exact "completed through gstep" result. An
    // interruption that landed mid-loop takes effect here — the
    // loop's steps still ran, just as a real eviction notice
    // observed at the next session checkpoint would.
    if (const PreemptionEvent *event = preempt->poll(sim.now())) {
        abortRun(*event);
        return;
    }

    const std::uint64_t loop_steps =
        std::min(work.schedule.iterations_per_loop, end - gstep);

    // Host-side dispatch of one device loop. These run on the
    // session thread concurrently with device execution.
    emitHost(hostop::kRunGraph, sim.now(), 2 * kMsec, next_step);
    emitHost(hostop::kSend, sim.now(), 300 * kUsec, next_step);

    runSteps(loop_steps, train_priced, false,
             [this, loop_steps, gstep]() {
        emitHost(hostop::kRecv, sim.now(), 300 * kUsec,
                 next_step ? next_step - 1 : 0);
        emitHost(hostop::kLSRAv2, sim.now(), 150 * kUsec,
                 next_step ? next_step - 1 : 0);
        train_done += loop_steps;
        const std::uint64_t new_gstep =
            config.start_step + train_done;

        auto resume = [this]() { trainLoop(); };

        auto maybe_checkpoint = [this, gstep, new_gstep,
                                 resume]() {
            if (boundariesCrossed(gstep, new_gstep,
                                  work.schedule
                                      .checkpoint_interval)) {
                ckpt.save(new_gstep, resume);
            } else {
                resume();
            }
        };

        if (boundariesCrossed(gstep, new_gstep,
                              work.schedule.steps_per_eval) &&
            work.schedule.eval_steps) {
            // TPUEstimator evaluation spins up its own session:
            // it restores the latest checkpoint, then runs the
            // eval program.
            ckpt.restore(next_step, [this, maybe_checkpoint]() {
                runSteps(work.schedule.eval_steps, eval_priced, true,
                         maybe_checkpoint);
            });
        } else {
            maybe_checkpoint();
        }
    });
}

void
TrainingSession::captureMetrics()
{
    outcome.wall_time = sim.now();
    outcome.train_window = last_step_end > first_step_start
        ? last_step_end - first_step_start : 0;
    outcome.steps_completed = train_done;
    outcome.tpu = core.counters();
    outcome.pipeline = input.counters();
    // Idle is wall-based over the whole run: every nanosecond the
    // device is not executing operators — initialization, infeed
    // stalls, eval gaps, checkpoint pauses — counts. TPUPoint
    // profiles the entire duration of an application (Section
    // III), so its reported idle includes these.
    const double window = static_cast<double>(outcome.wall_time);
    if (window > 0) {
        outcome.tpu_idle_fraction = 1.0 -
            static_cast<double>(outcome.tpu.busy) / window;
        if (outcome.tpu_idle_fraction < 0)
            outcome.tpu_idle_fraction = 0;
        outcome.mxu_utilization =
            static_cast<double>(outcome.tpu.mxu_active) / window;
    }
    outcome.checkpoints = ckpt.checkpoints();
}

void
TrainingSession::finishRun()
{
    ckpt.save(config.start_step + train_done, [this]() {
        const SimTime t0 = sim.now();
        const SimTime disconnect = static_cast<SimTime>(
            2.0 * kSec * work.fixed_cost_scale);
        sim.schedule(disconnect, [this, t0]() {
            emitHost(hostop::kDisconnectHostFromDistributedTPUSystem,
                     t0, sim.now() - t0,
                     next_step ? next_step - 1 : 0);
            captureMetrics();
            done = true;
            if (completion)
                completion();
        });
    });
}

void
TrainingSession::abortRun(const PreemptionEvent &event)
{
    // The device is gone: no final checkpoint save, no orderly
    // disconnect — just the teardown notice the host observes. The
    // result is partial; whatever checkpoints were saved before the
    // interruption are all a restart can build on.
    const StepId gstep = config.start_step + train_done;
    emitHost(hostop::kDevicePreempted, event.at,
             sim.now() > event.at ? sim.now() - event.at : 0, gstep);
    const SimTime teardown = static_cast<SimTime>(
        200 * kMsec * work.fixed_cost_scale);
    sim.schedule(teardown, [this, event, gstep]() {
        captureMetrics();
        outcome.preempted = true;
        outcome.preemption_kind = event.kind;
        outcome.preempted_at = gstep;
        done = true;
        if (completion)
            completion();
    });
}

const SessionResult &
TrainingSession::result() const
{
    if (!done)
        panic("TrainingSession::result before completion");
    return outcome;
}

} // namespace tpupoint
