/**
 * @file
 * Profile-bytes golden: the exact container bytes `tpupoint-profile`
 * streams for every Table I workload on v2 and v3, plus one faulted
 * and preempted run, pinned by FNV-1a hash. Any change to the
 * collector, the encoder or the spool that moves a single profile
 * byte fails here.
 *
 * Regenerate (only when the profile format intentionally changes):
 *   TPUPOINT_UPDATE_GOLDENS=1 ./integration_test \
 *       --gtest_filter='ProfileBytesGolden*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/resilient.hh"
#include "workloads/catalog.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

RuntimeWorkload
scaledWorkload(WorkloadId id)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    return makeWorkload(id, options);
}

/** The bytes `tpupoint-profile --scale 0.02` writes for @p id. */
std::string
profileBytes(WorkloadId id, TpuGeneration gen)
{
    const RuntimeWorkload workload = scaledWorkload(id);
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
std::string
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
            ProfileRecord boundary;
            boundary.attempt = failed.index + 1;
            boundary.attempt_boundary = true;
            boundary.preempted_at_step = failed.reached_step;
            boundary.resume_step = resume;
            boundary.window_begin = failed.ended_at;
            boundary.window_end = failed.ended_at;
            spool.push(encodeProfileRecord(boundary));
        });
    const ResilientResult result = runner.run();
    spool.finish();
    *attempts = result.attempts;
    return out.str();
}

/** One "name hash size" line per profile, in a fixed order. */
std::string
hashLines()
{
    std::ostringstream lines;
    const auto line = [&lines](const std::string &name,
                               const std::string &bytes) {
        lines << name << ' ' << std::hex << fnv1a(bytes) << std::dec
              << ' ' << bytes.size() << '\n';
    };
    for (const WorkloadId id : allWorkloads()) {
        for (const TpuGeneration gen :
             {TpuGeneration::V2, TpuGeneration::V3}) {
            line(std::string(workloadName(id)) +
                     (gen == TpuGeneration::V2 ? "/v2" : "/v3"),
                 profileBytes(id, gen));
        }
    }
    std::uint32_t attempts = 0;
    line("QANet-SQuAD/v2/faulted-preempted",
         resilientProfileBytes(&attempts));
    EXPECT_GT(attempts, 1u) << "the preemption never fired";
    return lines.str();
}

bool
updateGoldens()
{
    const char *env = std::getenv("TPUPOINT_UPDATE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(ProfileBytesGolden, EveryWorkloadMatchesPinnedHash)
{
    const std::string path =
        std::string(TPUPOINT_GOLDEN_DIR) + "/profile_hashes.txt";
    const std::string produced = hashLines();
    if (updateGoldens()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << produced;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run with TPUPOINT_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), produced);
}

} // namespace
} // namespace tpupoint
