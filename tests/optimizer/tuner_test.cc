/** @file Online tuner behaviour on live sessions. */

#include <gtest/gtest.h>

#include "optimizer/tuner.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

RuntimeWorkload
tunableWorkload()
{
    // A COCO-fed workload whose naive pipeline starves the TPU.
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 500;
    return makeWorkload(WorkloadId::RetinanetCoco, options);
}

struct Rig
{
    Simulator sim;
    RuntimeWorkload workload = tunableWorkload();
    SessionConfig config;
    std::unique_ptr<TrainingSession> session;
    std::unique_ptr<TpuPointProfiler> profiler;
    std::unique_ptr<OnlineTuner> tuner;

    explicit Rig(const PipelineConfig &pipeline)
    {
        config.pipeline = pipeline;
        session = std::make_unique<TrainingSession>(
            sim, config, workload);
        profiler = std::make_unique<TpuPointProfiler>(
            sim, *session);
        profiler->start(/*analyzer=*/false);
        tuner = std::make_unique<OnlineTuner>(
            sim, *session, *profiler, allTunableParams());
    }

    void
    run()
    {
        tuner->start();
        session->start(nullptr);
        sim.run();
        tuner->stop();
        profiler->stop();
    }
};

TEST(TunerTest, DetectsCriticalPhaseAndImprovesNaiveRun)
{
    Rig rig(PipelineConfig::naive());
    rig.run();
    const OnlineTuner::Report &report = rig.tuner->report();
    EXPECT_TRUE(report.critical_phase_detected);
    EXPECT_TRUE(report.finished);
    EXPECT_GT(report.trials, 0u);
    EXPECT_GT(report.accepted, 0u);
    // The tuned pipeline has more parallelism than the naive one.
    EXPECT_GT(report.best_config.num_parallel_calls,
              report.initial_config.num_parallel_calls);
    // The session completed under the tuned configuration.
    EXPECT_EQ(rig.session->pipeline().config(),
              report.best_config);
    EXPECT_FALSE(report.log.empty());
}

TEST(TunerTest, KeepsDefaultsWhenNoImprovementExists)
{
    // A compute-bound workload: pipeline tuning cannot help.
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 400;
    const RuntimeWorkload w =
        makeWorkload(WorkloadId::DcganMnist, options);

    Simulator sim;
    SessionConfig config;
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(false);
    OnlineTuner tuner(sim, session, profiler, allTunableParams());
    tuner.start();
    session.start(nullptr);
    sim.run();
    tuner.stop();
    profiler.stop();

    const OnlineTuner::Report &report = tuner.report();
    // Rejected trials revert: the final config equals a config no
    // worse than the initial one.
    EXPECT_EQ(session.pipeline().config(), report.best_config);
    if (report.accepted == 0) {
        EXPECT_EQ(report.best_config, report.initial_config);
    }
}

TEST(TunerTest, HonorsRestrictedParameterSet)
{
    Rig rig(PipelineConfig::naive());
    // Replace the tuner with one that may only touch prefetch.
    rig.tuner = std::make_unique<OnlineTuner>(
        rig.sim, *rig.session, *rig.profiler,
        std::vector<TunableParam>{TunableParam::PrefetchDepth});
    rig.run();
    const OnlineTuner::Report &report = rig.tuner->report();
    // Untouched parameters stay at their initial values.
    EXPECT_EQ(report.best_config.num_parallel_calls,
              report.initial_config.num_parallel_calls);
    EXPECT_EQ(report.best_config.num_parallel_reads,
              report.initial_config.num_parallel_reads);
    EXPECT_EQ(report.best_config.map_and_batch_fused,
              report.initial_config.map_and_batch_fused);
}

TEST(TunerTest, QualityGuardStaysConsistentThroughTuning)
{
    Rig rig(PipelineConfig::naive());
    rig.run();
    // If tuning had perturbed the output stream the tuner would
    // have refused further changes; the run finished cleanly.
    EXPECT_EQ(rig.session->result().steps_completed,
              rig.workload.schedule.train_steps);
}

} // namespace
} // namespace tpupoint
