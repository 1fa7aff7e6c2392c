/**
 * @file
 * Quickstart: profile one training run and summarize its phases.
 *
 * This mirrors the paper's Figure 2 programming interface:
 *
 *   estimator = tf.contrib.tpu.TPUEstimator(...)   -> TrainingSession
 *   tpprofiler = TPUPoint(...)                     -> TpuPointProfiler
 *   tpprofiler.Start(analyzer=True)                -> profiler.start(true)
 *   estimator.train(...)                           -> session.start + sim.run
 *   tpprofiler.Stop()                              -> profiler.stop()
 *
 * then runs TPUPoint-Analyzer over the collected records.
 */

#include <cstdio>

#include "analyzer/analyzer.hh"
#include "core/strings.hh"
#include "profiler/profiler.hh"
#include "runtime/session.hh"
#include "workloads/catalog.hh"

using namespace tpupoint;

int
main()
{
    // 1. Pick a workload from the Table I catalog, scaled down so
    //    the example finishes in a moment.
    WorkloadOptions options;
    options.step_scale = 0.05;
    const RuntimeWorkload workload =
        makeWorkload(WorkloadId::DcganCifar10, options);
    std::printf("workload: %s (batch %llu, %llu train steps)\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(
                    workload.batch_size),
                static_cast<unsigned long long>(
                    workload.schedule.train_steps));

    // 2. Create the platform: a TPUv2-8 instance and the session.
    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::v2();
    TrainingSession session(sim, config, workload);

    // 3. Attach TPUPoint-Profiler with the analyzer flag set, run
    //    the "training job", and stop the profiler.
    TpuPointProfiler profiler(sim, session);
    profiler.start(/*analyzer=*/true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    const SessionResult &result = session.result();
    std::printf("\nrun finished: wall %s, idle %.1f%%, "
                "MXU utilization %.1f%%\n",
                formatDuration(result.wall_time).c_str(),
                100 * result.tpu_idle_fraction,
                100 * result.mxu_utilization);
    std::printf("profiler: %zu records, %llu bytes streamed to "
                "cloud storage\n",
                profiler.payloads().size(),
                static_cast<unsigned long long>(
                    profiler.bytesRecorded()));

    // 4. Post-execution analysis with OLS at the 70% threshold.
    AnalyzerOptions analyzer_options;
    analyzer_options.algorithm =
        PhaseAlgorithm::OnlineLinearScan;
    const AnalysisResult analysis =
        TpuPointAnalyzer(analyzer_options)
            .analyze(profiler.payloads(),
                     session.checkpoints().checkpoints());

    std::printf("\nphases found: %zu (top-3 cover %.1f%% of "
                "execution)\n",
                analysis.phases.size(),
                100 * analysis.top3_coverage);
    for (const auto &phase : analysis.phases) {
        std::printf("  phase %d: steps %llu..%llu (%zu steps, "
                    "%s)\n",
                    phase.id,
                    static_cast<unsigned long long>(
                        phase.first_step),
                    static_cast<unsigned long long>(
                        phase.last_step),
                    phase.size(),
                    formatDuration(phase.total_duration).c_str());
    }

    // 5. The most time-consuming operators of the longest phase —
    //    the Table II view.
    const Phase *longest = analysis.longest();
    if (longest) {
        std::printf("\nlongest phase, top TPU operators:\n");
        for (const auto &op : topOps(longest->tpu_ops, 5)) {
            std::printf("  %-24s %6.1f%%  (%llu calls)\n",
                        op.name.c_str(), 100 * op.share,
                        static_cast<unsigned long long>(
                            op.count));
        }
        std::printf("longest phase, top host operators:\n");
        for (const auto &op : topOps(longest->host_ops, 5)) {
            std::printf("  %-24s %6.1f%%  (%llu calls)\n",
                        op.name.c_str(), 100 * op.share,
                        static_cast<unsigned long long>(
                            op.count));
        }
    }
    return 0;
}
