/**
 * @file
 * ResilientRunner: checkpoint-restart orchestration for preemptible
 * Cloud TPU jobs. A TrainingSession aborted by a device
 * interruption (sim/fault.hh PreemptionPlan) leaves a partial
 * result; the runner restarts a fresh session from the nearest
 * saved checkpoint (CheckpointManager::nearest), charging the
 * restore and re-warm to the same simulated clock, until the
 * requested steps complete or the attempt budget runs out. Restart
 * backoff reuses the RetryPolicy semantics of the storage layer:
 * capped geometric delay with deterministic jitter drawn from the
 * preemption plan's own stream, so a whole preemption experiment
 * replays bit-for-bit from one seed.
 *
 * Accounting is exact by construction: each attempt's *useful*
 * steps are the progress beyond the furthest step any earlier
 * attempt reached, everything else is replay, and the useful totals
 * across attempts sum to exactly the steps the run requested.
 */

#ifndef TPUPOINT_RUNTIME_RESILIENT_HH
#define TPUPOINT_RUNTIME_RESILIENT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/session.hh"

namespace tpupoint {

/** Restart-orchestration knobs. */
struct ResilientOptions
{
    /**
     * Sessions started, the first included. Exhausting the budget
     * with the run still incomplete is not an error: the result
     * reports completed = false and everything that did finish.
     */
    std::uint32_t max_attempts = 8;

    /** Delay before restart attempt k: min(initial * multiplier^k,
     * max), jittered like storage retries. */
    SimTime initial_backoff = 1 * kSec;
    double backoff_multiplier = 2.0;
    SimTime max_backoff = 60 * kSec;

    /** Jitter fraction in [0, 1]: backoff *= 1 +/- jitter. */
    double jitter = 0.25;
};

/** What one attempt did, for reports and boundary records. */
struct AttemptOutcome
{
    std::uint32_t index = 0;       ///< 0-based attempt number.
    StepId start_step = 0;         ///< Step the attempt resumed at.
    bool preempted = false;
    PreemptionKind kind = PreemptionKind::Eviction;
    StepId reached_step = 0;       ///< Last global step completed.
    std::uint64_t steps_run = 0;   ///< Train steps executed.
    std::uint64_t useful_steps = 0; ///< New progress contributed.
    std::uint64_t replayed_steps = 0; ///< steps_run - useful.
    SimTime began_at = 0;
    SimTime ended_at = 0;
};

/** Outcome of the whole resilient run. */
struct ResilientResult
{
    /** True when the requested steps all completed. */
    bool completed = false;

    std::uint32_t attempts = 0;    ///< Sessions actually started.
    std::uint64_t total_steps_run = 0; ///< Across all attempts.
    std::uint64_t useful_steps = 0;    ///< == requested on success.
    std::uint64_t replayed_steps = 0;  ///< Work run twice.
    SimTime wall_time = 0;         ///< Sim clock at the end.
    SimTime backoff_time = 0;      ///< Spent waiting to restart.

    /** Final attempt's session result (partial if !completed). */
    SessionResult final_result;

    /** Per-attempt log, ascending by index. */
    std::vector<AttemptOutcome> attempt_log;

    /** Checkpoints accumulated across every attempt. */
    std::vector<CheckpointInfo> checkpoints;
};

/**
 * Drives a training run to completion across preemptions. One
 * PreemptionPlan spans all attempts (a consumed interruption never
 * fires twice) and one Simulator carries the clock through
 * attempts, restores and backoff, so the reported wall time is the
 * real cost of the preempted run.
 */
class ResilientRunner
{
  public:
    /**
     * Called just before each attempt's session starts, with the
     * session and the attempt index: the hook point for attaching a
     * per-attempt profiler.
     */
    using AttemptHook =
        std::function<void(TrainingSession &session,
                           std::uint32_t attempt)>;

    /**
     * Called right after attempt @p failed was preempted, with the
     * step the next attempt will resume from — the hook point for
     * emitting an attempt-boundary record into a streamed profile.
     * Not called when the attempt budget is already exhausted.
     */
    using BoundaryHook =
        std::function<void(const AttemptOutcome &failed,
                           StepId resume_step)>;

    ResilientRunner(Simulator &simulator,
                    const SessionConfig &session_config,
                    const RuntimeWorkload &workload_def,
                    const ResilientOptions &options = {});

    void setAttemptHook(AttemptHook hook)
    {
        attempt_hook = std::move(hook);
    }

    void setBoundaryHook(BoundaryHook hook)
    {
        boundary_hook = std::move(hook);
    }

    /**
     * Run to completion (or budget exhaustion). Drives the
     * simulator itself: each attempt's event set drains fully
     * before the next starts. @pre the simulator is idle.
     */
    ResilientResult run();

    /** The shared interruption plan (for tests and reports). */
    PreemptionPlan &preemptionPlan() { return plan; }

  private:
    Simulator &sim;
    SessionConfig base_config;
    RuntimeWorkload work;
    ResilientOptions opts;
    PreemptionPlan plan;
    AttemptHook attempt_hook;
    BoundaryHook boundary_hook;
};

} // namespace tpupoint

#endif // TPUPOINT_RUNTIME_RESILIENT_HH
