/**
 * @file
 * In-process profile builders shared by the integration tests: the
 * exact container bytes `tpupoint-profile --scale F` writes for a
 * workload, and a faulted, preempted multi-attempt run.
 */

#ifndef TPUPOINT_TESTS_INTEGRATION_PROFILES_HH
#define TPUPOINT_TESTS_INTEGRATION_PROFILES_HH

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/resilient.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace testutil {

inline RuntimeWorkload
scaledWorkload(WorkloadId id, double scale = 0.02)
{
    WorkloadOptions options;
    options.step_scale = scale;
    return makeWorkload(id, options);
}

/** The bytes `tpupoint-profile --scale F` writes for @p id. */
inline std::string
profileBytes(WorkloadId id, TpuGeneration gen, double scale = 0.02)
{
    const RuntimeWorkload workload = scaledWorkload(id, scale);
    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(gen);
    TrainingSession session(sim, config, workload);
    ProfilerOptions options;
    options.retain_records = false;
    TpuPointProfiler profiler(sim, session, options);
    std::ostringstream out(std::ios::binary);
    profiler.streamTo(out);
    profiler.start(/*analyzer=*/true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    return out.str();
}

/**
 * The bytes of `tpupoint-profile --workload qanet --scale 0.02
 * --fault-error-rate 0.05 --preempt-at 30`: per-attempt profilers
 * into one shared spool, with attempt-boundary records between.
 */
inline std::string
resilientProfileBytes(std::uint32_t *attempts)
{
    const RuntimeWorkload workload =
        scaledWorkload(WorkloadId::QanetSquad);
    Simulator sim;
    SessionConfig config;
    config.faults = FaultSpec::uniform(0.05);
    config.preemption.events.push_back(
        {30 * kSec, PreemptionKind::Eviction});
    std::ostringstream out(std::ios::binary);
    RecordSpool spool(&out);
    ResilientRunner runner(sim, config, workload);
    std::unique_ptr<TpuPointProfiler> profiler;
    runner.setAttemptHook(
        [&](TrainingSession &session, std::uint32_t attempt) {
            ProfilerOptions options;
            options.retain_records = false;
            options.attempt = attempt;
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session, options);
            profiler->streamTo(spool);
            profiler->start(/*analyzer=*/true);
        });
    runner.setBoundaryHook(
        [&](const AttemptOutcome &failed, StepId resume) {
            spool.push(encodeAttemptBoundary(
                failed.index + 1, failed.reached_step, resume,
                failed.ended_at));
        });
    const ResilientResult result = runner.run();
    spool.finish();
    *attempts = result.attempts;
    return out.str();
}

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_INTEGRATION_PROFILES_HH
