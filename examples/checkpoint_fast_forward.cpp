/**
 * @file
 * Phase-directed fast-forwarding (Section IV-C): profile a run,
 * let TPUPoint-Analyzer associate every phase with its nearest
 * model checkpoint, then restart the application at a targeted
 * phase "without starting from step zero" and measure the time
 * saved.
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
    WorkloadOptions options;
    options.step_scale = 0.05;
    const RuntimeWorkload workload =
        makeWorkload(WorkloadId::DcganCifar10, options);

    // Profile the full run once.
    Simulator sim;
    TrainingSession session(sim, SessionConfig{}, workload);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    const SimTime full_wall = session.result().wall_time;
    std::printf("full run: %s, %zu checkpoints saved\n",
                formatDuration(full_wall).c_str(),
                session.checkpoints().checkpoints().size());

    // Analyze and print the phase/checkpoint association.
    const AnalysisResult analysis = TpuPointAnalyzer().analyze(
        profiler.payloads(), session.checkpoints().checkpoints());
    std::printf("\nphase -> nearest checkpoint:\n");
    for (const auto &assoc : analysis.checkpoints) {
        std::printf("  phase %d -> step %llu (distance %llu)\n",
                    assoc.phase_id,
                    static_cast<unsigned long long>(
                        assoc.checkpoint_step),
                    static_cast<unsigned long long>(
                        assoc.distance));
    }

    // Target the last (longest-running) phase and replay only it.
    const Phase *target = nullptr;
    for (const auto &phase : analysis.phases)
        if (!target || phase.first_step > target->first_step)
            target = &phase;
    if (!target || analysis.checkpoints.empty()) {
        std::printf("nothing to fast-forward\n");
        return 0;
    }
    StepId restart_step = 0;
    for (const auto &assoc : analysis.checkpoints)
        if (assoc.phase_id == target->id)
            restart_step = assoc.checkpoint_step;

    std::printf("\nfast-forwarding to phase %d via the checkpoint "
                "at step %llu...\n",
                target->id,
                static_cast<unsigned long long>(restart_step));

    Simulator ff_sim;
    SessionConfig restart;
    restart.start_step = restart_step;
    TrainingSession resumed(ff_sim, restart, workload);
    resumed.start(nullptr);
    ff_sim.run();

    const SimTime ff_wall = resumed.result().wall_time;
    std::printf("replay-from-checkpoint: %s (%.1f%% of the full "
                "run)\n",
                formatDuration(ff_wall).c_str(),
                100.0 * static_cast<double>(ff_wall) /
                    static_cast<double>(full_wall));
    std::printf("steps re-executed: %llu of %llu\n",
                static_cast<unsigned long long>(
                    resumed.result().steps_completed),
                static_cast<unsigned long long>(
                    workload.schedule.train_steps));
    return 0;
}
