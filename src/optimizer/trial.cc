#include "optimizer/trial.hh"

#include "core/logging.hh"
#include "core/strings.hh"

namespace tpupoint {

TrialRunner::TrialRunner(const RuntimeWorkload &workload,
                         const SessionConfig &base,
                         StepId start_step,
                         std::uint64_t trial_steps)
    : work(workload), base_config(base), restart_step(start_step),
      steps_per_trial(trial_steps)
{
    if (trial_steps == 0)
        fatal("TrialRunner: need at least one trial step");
    if (start_step + trial_steps > work.schedule.train_steps) {
        fatal("TrialRunner: trial window [", start_step, ", ",
              start_step + trial_steps,
              ") exceeds the training run");
    }
}

TrialResult
TrialRunner::evaluate(const PipelineConfig &config) const
{
    Simulator sim;
    SessionConfig trial_config = base_config;
    trial_config.pipeline = config;
    trial_config.start_step = restart_step;
    trial_config.stop_at_step = restart_step + steps_per_trial;

    TrainingSession session(sim, trial_config, work);
    session.start(nullptr);
    sim.run();
    ++trials;

    const SessionResult &result = session.result();
    TrialResult out;
    out.config = config;
    out.wall_time = result.wall_time;
    out.train_window = result.train_window;
    out.steps = result.steps_completed;
    if (out.steps > 0) {
        out.seconds_per_step = toSeconds(out.train_window) /
            static_cast<double>(out.steps);
    }
    return out;
}

TrialSearchResult
searchFromCheckpoint(const TrialRunner &runner,
                     const PipelineConfig &initial,
                     const std::vector<TunableParam> &adjustable,
                     const DatasetSpec &dataset,
                     const HostSpec &host)
{
    TrialSearchResult result;
    result.best_config = initial;

    const TrialResult baseline = runner.evaluate(initial);
    result.baseline_seconds_per_step = baseline.seconds_per_step;
    result.best_seconds_per_step = baseline.seconds_per_step;
    result.log.push_back(
        "baseline: " +
        formatDouble(1e3 * baseline.seconds_per_step, 3) +
        " ms/step (" + initial.toString() + ")");

    for (const TunableParam param : adjustable) {
        for (const int direction : {+1, -1}) {
            while (true) {
                const auto candidate = neighborValue(
                    result.best_config, param, direction);
                if (!candidate)
                    break;
                PipelineConfig probe = result.best_config;
                setParam(probe, param, *candidate);
                if (!isValidConfig(probe, dataset, host))
                    break;
                const TrialResult trial = runner.evaluate(probe);
                ++result.trials;
                const bool improved = trial.seconds_per_step <
                    result.best_seconds_per_step *
                        (1.0 - kMinImprovement);
                result.log.push_back(
                    std::string(improved ? "accepted "
                                         : "rejected ") +
                    tunableParamName(param) + " = " +
                    std::to_string(*candidate) + " (" +
                    formatDouble(1e3 * trial.seconds_per_step,
                                 3) +
                    " ms/step)");
                if (!improved)
                    break;
                result.best_config = probe;
                result.best_seconds_per_step =
                    trial.seconds_per_step;
            }
        }
    }
    result.log.push_back("best: " +
                         result.best_config.toString());
    return result;
}

} // namespace tpupoint
