/**
 * @file Determinism and equivalence properties of the whole stack:
 * profiled runs replay bit-for-bit, profiling does not perturb the
 * schedule of completed work, and checkpoint restarts join up with
 * full runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "analyzer/analyzer.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

RuntimeWorkload
workload(WorkloadId id = WorkloadId::DcganMnist,
         std::uint64_t steps = 120)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = steps;
    return makeWorkload(id, options);
}

/** Serialize a profiled run for byte-level comparison. */
std::string
profiledRunBytes(const RuntimeWorkload &w, std::uint64_t seed)
{
    Simulator sim;
    SessionConfig config;
    config.seed = seed;
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    std::ostringstream out;
    profiler.writeRecords(out);
    return out.str();
}

TEST(DeterminismTest, ProfiledRunsReplayBitForBit)
{
    const RuntimeWorkload w = workload();
    EXPECT_EQ(profiledRunBytes(w, 1), profiledRunBytes(w, 1));
}

TEST(DeterminismTest, DifferentSeedsDifferentJitter)
{
    const RuntimeWorkload w = workload();
    // Different seeds perturb host-pipeline jitter, so the raw
    // profile bytes differ...
    EXPECT_NE(profiledRunBytes(w, 1), profiledRunBytes(w, 2));
    // ...but the structural analysis is stable.
    auto analyze = [&](std::uint64_t seed) {
        AnalysisResult result = TpuPointAnalyzer().analyze(
            testutil::payloadsIn(profiledRunBytes(w, seed)));
        return result.phases.size();
    };
    EXPECT_EQ(analyze(1), analyze(2));
}

TEST(DeterminismTest, SplitRunMatchesFullRunStepCount)
{
    const RuntimeWorkload w = workload(WorkloadId::DcganMnist,
                                       100);
    auto steps_completed = [&](StepId start, StepId stop) {
        Simulator sim;
        SessionConfig config;
        config.start_step = start;
        config.stop_at_step = stop;
        TrainingSession session(sim, config, w);
        session.start(nullptr);
        sim.run();
        return session.result().steps_completed;
    };
    const std::uint64_t full = steps_completed(0, 0);
    const std::uint64_t first = steps_completed(0, 60);
    const std::uint64_t second = steps_completed(60, 0);
    EXPECT_EQ(first + second, full);
}

TEST(DeterminismTest, DeviceGenerationDoesNotChangeWorkDone)
{
    const RuntimeWorkload w = workload();
    auto ops_executed = [&](TpuGeneration gen) {
        Simulator sim;
        SessionConfig config;
        config.device = TpuDeviceSpec::forGeneration(gen);
        TrainingSession session(sim, config, w);
        session.start(nullptr);
        sim.run();
        return session.result().tpu.ops_executed;
    };
    // Same program, same operators — only the timing changes.
    EXPECT_EQ(ops_executed(TpuGeneration::V2),
              ops_executed(TpuGeneration::V3));
}

TEST(DeterminismTest, ProfilerDoesNotChangeStepOutcome)
{
    const RuntimeWorkload w = workload();
    auto run_steps = [&](bool profiled) {
        Simulator sim;
        TrainingSession session(sim, SessionConfig{}, w);
        std::unique_ptr<TpuPointProfiler> profiler;
        if (profiled) {
            profiler =
                std::make_unique<TpuPointProfiler>(sim, session);
            profiler->start(true);
        }
        session.start(nullptr);
        sim.run();
        return session.result().steps_completed;
    };
    EXPECT_EQ(run_steps(false), run_steps(true));
}

} // namespace
} // namespace tpupoint
