#include "runtime/resilient.hh"

#include <algorithm>

#include "core/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace tpupoint {

ResilientRunner::ResilientRunner(Simulator &simulator,
                                 const SessionConfig &session_config,
                                 const RuntimeWorkload &workload_def,
                                 const ResilientOptions &options)
    : sim(simulator), base_config(session_config),
      work(workload_def), opts(options),
      plan(session_config.preemption,
           session_config.seed ^ 0x505245454d50ULL /* PREEMP */)
{
    if (opts.max_attempts < 1)
        fatal("ResilientRunner: attempt budget needs >= 1 attempt");
    checkBackoff("ResilientRunner", opts.backoff_multiplier,
                 opts.jitter);
    if (opts.initial_backoff < 0)
        fatal("ResilientRunner: backoff must be non-negative");
}

ResilientResult
ResilientRunner::run()
{
    if (!sim.idle())
        fatal("ResilientRunner::run: simulator has pending events");

    ResilientResult out;
    const StepId base = base_config.start_step;
    StepId resume = base;
    StepId furthest = base; ///< Highest global step any attempt hit.

    for (std::uint32_t attempt = 0; attempt < opts.max_attempts;
         ++attempt) {
        AttemptOutcome log;
        log.index = attempt;
        log.start_step = resume;
        log.began_at = sim.now();

        obs::MetricsRegistry::global()
            .counter("resilient.attempts")
            .add(1);
        obs::TraceSpan attempt_span("resilient.attempt");
        attempt_span.arg("attempt",
                         static_cast<std::uint64_t>(attempt));
        attempt_span.arg("resume_step", resume);

        StepId next_resume = base;
        {
            SessionConfig cfg = base_config;
            cfg.start_step = resume;
            // The session consults the runner's shared plan, not a
            // per-attempt one: interruptions already consumed by a
            // dead attempt must never fire again.
            cfg.preemption = PreemptionSpec();
            TrainingSession session(sim, cfg, work);
            session.injectPreemptions(&plan);
            if (attempt_hook)
                attempt_hook(session, attempt);

            bool attempt_done = false;
            session.start([&attempt_done]() {
                attempt_done = true;
            });
            // Drain the whole event set: the session's completion
            // (or preemption teardown) plus any residual pipeline
            // activity, so the session can be destroyed safely.
            sim.run();
            if (!attempt_done)
                panic("ResilientRunner: attempt wedged without "
                      "completing");

            const SessionResult &res = session.result();
            ++out.attempts;
            const StepId reached = resume + res.steps_completed;
            log.preempted = res.preempted;
            log.kind = res.preemption_kind;
            log.reached_step = reached;
            log.steps_run = res.steps_completed;
            // Useful progress is everything beyond the furthest
            // step any earlier attempt completed; the rest is
            // replay. Summed across attempts this equals the
            // requested steps exactly once the run completes.
            log.useful_steps =
                reached > furthest ? reached - furthest : 0;
            log.replayed_steps = log.steps_run - log.useful_steps;
            log.ended_at = sim.now();
            furthest = std::max(furthest, reached);

            out.total_steps_run += log.steps_run;
            out.useful_steps += log.useful_steps;
            out.replayed_steps += log.replayed_steps;
            out.checkpoints.insert(out.checkpoints.end(),
                                   res.checkpoints.begin(),
                                   res.checkpoints.end());
            out.final_result = res;
            out.attempt_log.push_back(log);

            attempt_span.arg("reached_step", reached);
            attempt_span.arg("preempted", res.preempted ?
                             "true" : "false");
            attempt_span.finish();

            if (!res.preempted) {
                out.completed = true;
                break;
            }
            obs::MetricsRegistry::global()
                .counter("resilient.preemptions")
                .add(1);

            // Restart point: the checkpoint nearest the preempted
            // step from this attempt's registry, improved by any
            // checkpoint an earlier attempt saved closer to (but
            // not past) the interruption. Resuming past the
            // preempted step would skip work, so it is clamped.
            obs::TraceSpan restore_span("checkpoint.restore");
            restore_span.arg("preempted_at", res.preempted_at);
            const CheckpointInfo *ck =
                session.checkpoints().nearest(res.preempted_at);
            next_resume = ck ? ck->step : base;
            for (const auto &info : out.checkpoints) {
                if (info.step <= res.preempted_at &&
                    info.step > next_resume)
                    next_resume = info.step;
            }
            next_resume = std::min(next_resume, res.preempted_at);
            next_resume = std::max(next_resume, base);
            restore_span.arg("resume_step", next_resume);
        } // session destroyed; the event set is drained

        if (attempt + 1 >= opts.max_attempts)
            break; // budget exhausted with the run incomplete

        if (boundary_hook)
            boundary_hook(log, next_resume);

        // Capped, jittered restart backoff (RetryPolicy semantics):
        // provisioning a replacement TPU takes real wall time,
        // charged to the same sim clock the attempts run on.
        const SimTime delay = jitteredBackoff(
            opts.initial_backoff, opts.backoff_multiplier,
            opts.max_backoff, opts.jitter, static_cast<int>(attempt),
            &plan);
        sim.schedule(delay, []() {});
        sim.run();
        out.backoff_time += delay;
        // Interruptions that landed while no device was held would
        // have evicted nothing; drop them.
        plan.discardUntil(sim.now());

        resume = next_resume;
    }

    out.wall_time = sim.now();
    return out;
}

} // namespace tpupoint
