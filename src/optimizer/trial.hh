/**
 * @file
 * Checkpoint-based trial runs. Section VII-A: TPUPoint-Optimizer
 * "instruments code to produce checkpoints before each function
 * call", which is what "allows for online tuning without the need
 * for complete program execution" — a candidate configuration can
 * be evaluated by replaying a short window of training from a saved
 * checkpoint instead of a whole run. TrialRunner packages that
 * replay loop; searchFromCheckpoint() hill-climbs a configuration
 * entirely out of trial windows.
 */

#ifndef TPUPOINT_OPTIMIZER_TRIAL_HH
#define TPUPOINT_OPTIMIZER_TRIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/parameters.hh"
#include "runtime/session.hh"

namespace tpupoint {

/** One trial's outcome. */
struct TrialResult
{
    PipelineConfig config;
    SimTime wall_time = 0;        ///< Whole trial (incl. restore).
    SimTime train_window = 0;     ///< First to last step.
    std::uint64_t steps = 0;
    double seconds_per_step = 0.0; ///< The tuning objective.
};

/**
 * Replays short training windows from a checkpoint under candidate
 * configurations.
 */
class TrialRunner
{
  public:
    /**
     * @param base Platform configuration the trials inherit
     *     (device, host, seed); the pipeline field is replaced per
     *     trial.
     * @param start_step Checkpoint step to restart from.
     * @param trial_steps Steps to replay per trial.
     */
    TrialRunner(const RuntimeWorkload &workload,
                const SessionConfig &base, StepId start_step,
                std::uint64_t trial_steps);

    /** Evaluate one candidate configuration. */
    TrialResult evaluate(const PipelineConfig &config) const;

    /** Trials executed so far. */
    std::uint64_t trialsRun() const { return trials; }

  private:
    RuntimeWorkload work;
    SessionConfig base_config;
    StepId restart_step;
    std::uint64_t steps_per_trial;
    mutable std::uint64_t trials = 0;
};

/** Result of a checkpoint-based configuration search. */
struct TrialSearchResult
{
    PipelineConfig best_config;
    double best_seconds_per_step = 0.0;
    double baseline_seconds_per_step = 0.0;
    std::uint64_t trials = 0;
    std::vector<std::string> log;

    /** Projected steady-state speedup of the tuned config. */
    double
    projectedSpeedup() const
    {
        return best_seconds_per_step > 0
            ? baseline_seconds_per_step / best_seconds_per_step
            : 0.0;
    }
};

/**
 * Coordinate-descent search over @p adjustable using checkpoint
 * trials only: the same accept/revert policy as the online tuner
 * (keep moving while the trial improves by kMinImprovement),
 * but each measurement is an isolated replay from the checkpoint —
 * no full training run is ever needed.
 */
TrialSearchResult searchFromCheckpoint(
    const TrialRunner &runner, const PipelineConfig &initial,
    const std::vector<TunableParam> &adjustable,
    const DatasetSpec &dataset, const HostSpec &host);

} // namespace tpupoint

#endif // TPUPOINT_OPTIMIZER_TRIAL_HH
