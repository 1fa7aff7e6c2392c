/**
 * @file
 * TrainingSession: the TPUEstimator.train() equivalent. Wires the
 * storage bucket, input pipeline, infeed/outfeed threads and the
 * TPU core into one event-driven training run, emitting the full
 * host+device trace through a TraceHub the profiler can attach to.
 */

#ifndef TPUPOINT_RUNTIME_SESSION_HH
#define TPUPOINT_RUNTIME_SESSION_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "host/checkpoint.hh"
#include "host/infeed.hh"
#include "host/pipeline.hh"
#include "host/spec.hh"
#include "host/storage.hh"
#include "proto/event.hh"
#include "runtime/workload.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "tpu/core.hh"
#include "tpu/queues.hh"
#include "tpu/spec.hh"

namespace tpupoint {

/** Platform-level session parameters. */
struct SessionConfig
{
    TpuDeviceSpec device = TpuDeviceSpec::v2();
    HostSpec host = HostSpec::standard();
    StorageSpec storage;
    PipelineConfig pipeline;

    /** Transient-fault schedule for the storage service (quiet by
     * default). Seeded from `seed` unless the spec carries its
     * own, so fault runs replay bit-for-bit. */
    FaultSpec faults;

    /** How storage transfers retry under the fault plan. */
    RetryPolicy retry;

    /** Device-interruption schedule (quiet by default). Seeded
     * from `seed` unless the spec carries its own. A session
     * checks the plan at each host-loop boundary and aborts with a
     * partial result when an interruption has landed. */
    PreemptionSpec preemption;

    /** Resume training from this global step (checkpoint restart). */
    StepId start_step = 0;

    /** Stop early at this step; 0 disables (optimizer trial
     * runs). */
    StepId stop_at_step = 0;

    /** Seed for all simulated variability. */
    std::uint64_t seed = 0x54505550; // "TPUP"
};

/** Outcome of a completed (or preempted) session. */
struct SessionResult
{
    SimTime wall_time = 0;        ///< Total simulated run time.
    SimTime train_window = 0;     ///< First to last step activity.
    std::uint64_t steps_completed = 0;
    TpuCore::Counters tpu;
    InputPipeline::Counters pipeline;
    double tpu_idle_fraction = 0.0; ///< idle / (busy + idle).
    double mxu_utilization = 0.0;   ///< mxu_active / (busy + idle).
    std::vector<CheckpointInfo> checkpoints;

    /** True when the run was cut short by a device interruption;
     * the result is then *partial* and the fields below apply. */
    bool preempted = false;
    PreemptionKind preemption_kind = PreemptionKind::Eviction;

    /** Last global step completed before the interruption. */
    StepId preempted_at = 0;
};

/**
 * One training run of one workload on one Cloud TPU instance.
 * Asynchronous: construct, optionally attach a profiler to
 * traceHub(), then start() and run the simulator.
 */
class TrainingSession
{
  public:
    using StepCallback =
        std::function<void(StepId step, SimTime step_time)>;

    TrainingSession(Simulator &simulator,
                    const SessionConfig &session_config,
                    const RuntimeWorkload &workload_def);

    /** Event fan-in point; attach the profiler here. */
    TraceHub &traceHub() { return hub; }

    /** Observe per-step completion (the optimizer's feed). */
    void setStepCallback(StepCallback cb) { step_cb = std::move(cb); }

    /** Begin the run; @p on_complete fires after disconnect. */
    void start(std::function<void()> on_complete);

    /** The input pipeline (live-tunable). */
    InputPipeline &pipeline() { return input; }

    /** Checkpoint registry. */
    CheckpointManager &checkpoints() { return ckpt; }

    /** Storage bucket (shared by dataset + checkpoints). */
    StorageBucket &storageBucket() { return storage; }

    /** The live fault plan injected into the storage service. */
    FaultPlan &faultPlan() { return fault_plan; }

    /** The live device-interruption plan being consulted. */
    PreemptionPlan &preemptionPlan() { return *preempt; }

    /**
     * Consult an external interruption plan instead of the
     * config-derived one. ResilientRunner shares one plan across
     * every attempt of a run so a consumed interruption never
     * fires twice. Call before start().
     */
    void injectPreemptions(PreemptionPlan *plan) { preempt = plan; }

    /** TPU device model. */
    TpuCore &tpu() { return core; }

    /** Global step of the most recently completed step. */
    StepId currentStep() const { return last_completed_step; }

    /** True once the run (and disconnect) finished. */
    bool finished() const { return done; }

    /** Result summary. @pre finished() */
    const SessionResult &result() const;

    /** The workload definition in use. */
    const RuntimeWorkload &workload() const { return work; }

    /** The session's platform configuration. */
    const SessionConfig &sessionConfig() const { return config; }

  private:
    void initPhase();
    void trainLoop();
    void runSteps(std::uint64_t count, const PricedSchedule &schedule,
                  bool is_eval, std::function<void()> next);
    void finishRun();
    void abortRun(const PreemptionEvent &event);
    void captureMetrics();

    void emitHost(const char *type, SimTime start, SimTime duration,
                  StepId step);

    std::uint64_t totalBatchesNeeded() const;

    Simulator &sim;
    SessionConfig config;
    RuntimeWorkload work;

    TraceHub hub;
    FaultPlan fault_plan;
    PreemptionPlan own_preempt; ///< Config-derived default plan.
    PreemptionPlan *preempt = &own_preempt;
    StorageBucket storage;
    InputPipeline input;
    InfeedQueue infeed_q;
    OutfeedQueue outfeed_q;
    TpuCore core;
    InfeedDriver infeed;
    OutfeedDrain outfeed;
    CheckpointManager ckpt;
    /** The workload's step schedules, priced once for the device. */
    PricedSchedule train_priced;
    PricedSchedule eval_priced;

    StepCallback step_cb;
    std::function<void()> completion;

    StepId next_step = 0;        ///< Next step id to dispatch.
    std::uint64_t train_done = 0; ///< Train steps completed.
    StepId last_completed_step = 0;
    SimTime last_step_end = 0;
    SimTime first_step_start = 0;
    bool done = false;
    SessionResult outcome;
};

} // namespace tpupoint

#endif // TPUPOINT_RUNTIME_SESSION_HH
