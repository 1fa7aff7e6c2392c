/**
 * @file
 * TPUPoint-Optimizer (Section VII): the automatic, online workload
 * tuner. It (1) analyzes and instruments the program, (2) tunes
 * adjustable parameters online without a complete execution cycle,
 * and (3) controls output quality. runOptimizationExperiment() is
 * the harness behind Figures 14-16: one run with the optimizer
 * attached versus one without.
 */

#ifndef TPUPOINT_OPTIMIZER_OPTIMIZER_HH
#define TPUPOINT_OPTIMIZER_OPTIMIZER_HH

#include <memory>

#include "optimizer/program_analysis.hh"
#include "optimizer/tuner.hh"
#include "profiler/profiler.hh"
#include "runtime/session.hh"

namespace tpupoint {

/**
 * One optimizer instance drives one TrainingSession. Construct
 * after the session, call start() before the simulator runs.
 */
class TpuPointOptimizer
{
  public:
    TpuPointOptimizer(Simulator &simulator,
                      TrainingSession &session);

    /**
     * Run program analysis, instrument the pipeline, start the
     * embedded profiler (analyzer disabled: records stay in host
     * memory) and arm the online tuner.
     */
    void start();

    /** Detach everything. */
    void stop();

    /** The program-analysis result. */
    const ProgramAnalysis &programAnalysis() const
    {
        return analysis;
    }

    /** The tuner's report. */
    const OnlineTuner::Report &report() const;

    /** Post-processing time this run will be charged. */
    SimTime postProcessingTime() const;

  private:
    Simulator &sim;
    TrainingSession &session;
    ProgramAnalysis analysis;
    std::unique_ptr<TpuPointProfiler> profiler;
    std::unique_ptr<OnlineTuner> tuner;
    bool started = false;
};

/** The Figures 14-16 comparison harness. */
struct OptimizationOutcome
{
    SessionResult baseline;   ///< Without TPUPoint-Optimizer.
    SessionResult optimized;  ///< With TPUPoint-Optimizer.
    SimTime optimized_wall_with_post = 0; ///< Incl. post-processing.
    PipelineConfig initial_config;
    PipelineConfig tuned_config;
    OnlineTuner::Report tuner_report;
    bool output_quality_ok = true;

    /** Baseline wall over optimized wall (incl. post time). */
    double speedup() const;
};

/**
 * Run @p workload twice under @p base_config — once untouched, once
 * with TPUPoint-Optimizer attached — and report both.
 */
OptimizationOutcome runOptimizationExperiment(
    const RuntimeWorkload &workload, const SessionConfig &base);

} // namespace tpupoint

#endif // TPUPOINT_OPTIMIZER_OPTIMIZER_HH
