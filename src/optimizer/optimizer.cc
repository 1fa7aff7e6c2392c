#include "optimizer/optimizer.hh"

#include "core/logging.hh"

namespace tpupoint {

namespace {

/**
 * Post-processing time charged when the run completes (the reason
 * very short workloads "can actually take a performance hit" from
 * the optimizer — Section VII-C).
 */
constexpr SimTime kPostProcessingBase = 15 * kSec;
constexpr SimTime kPostProcessingPerRecord = 10 * kMsec;

} // namespace

TpuPointOptimizer::TpuPointOptimizer(Simulator &simulator,
                                     TrainingSession &session_ref)
    : sim(simulator), session(session_ref)
{
}

void
TpuPointOptimizer::start()
{
    if (started)
        panic("TpuPointOptimizer::start called twice");
    started = true;

    // (1) Program analysis and instrumentation.
    analysis = analyzeProgram(session.workload(),
                              session.pipeline().config(),
                              session.sessionConfig().host);

    // (2) Online profiling with records buffered in host memory
    // (the analyzer flag is false on this path — Section III-B).
    profiler = std::make_unique<TpuPointProfiler>(sim, session);
    profiler->start(/*analyzer=*/false);

    // (3) The online tuner with output-quality control.
    tuner = std::make_unique<OnlineTuner>(sim, session, *profiler,
                                          analysis.adjustable);
    tuner->start();
}

void
TpuPointOptimizer::stop()
{
    if (tuner)
        tuner->stop();
    if (profiler)
        profiler->stop();
}

const OnlineTuner::Report &
TpuPointOptimizer::report() const
{
    if (!tuner)
        panic("TpuPointOptimizer::report before start");
    return tuner->report();
}

SimTime
TpuPointOptimizer::postProcessingTime() const
{
    const std::uint64_t records =
        profiler ? profiler->payloads().size() : 0;
    return kPostProcessingBase +
        static_cast<SimTime>(records) * kPostProcessingPerRecord;
}

double
OptimizationOutcome::speedup() const
{
    if (optimized_wall_with_post <= 0)
        return 0.0;
    return static_cast<double>(baseline.wall_time) /
        static_cast<double>(optimized_wall_with_post);
}

OptimizationOutcome
runOptimizationExperiment(const RuntimeWorkload &workload,
                          const SessionConfig &base)
{
    OptimizationOutcome outcome;
    outcome.initial_config = base.pipeline;

    {
        // Baseline: the program exactly as the user wrote it.
        Simulator sim;
        TrainingSession session(sim, base, workload);
        session.start(nullptr);
        sim.run();
        outcome.baseline = session.result();
    }
    {
        // With TPUPoint-Optimizer attached.
        Simulator sim;
        TrainingSession session(sim, base, workload);
        TpuPointOptimizer optimizer(sim, session);
        optimizer.start();
        session.start(nullptr);
        sim.run();
        optimizer.stop();
        outcome.optimized = session.result();
        outcome.optimized_wall_with_post =
            outcome.optimized.wall_time +
            optimizer.postProcessingTime();
        outcome.tuned_config = session.pipeline().config();
        outcome.tuner_report = optimizer.report();
        outcome.output_quality_ok =
            outcome.optimized.steps_completed ==
            outcome.baseline.steps_completed;
    }
    return outcome;
}

} // namespace tpupoint
