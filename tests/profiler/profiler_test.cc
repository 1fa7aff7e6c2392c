/** @file TPUPoint-Profiler against live sessions. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

RuntimeWorkload
smallWorkload(std::uint64_t steps = 60)
{
    WorkloadOptions options;
    options.step_scale = 0.01;
    options.max_train_steps = steps;
    return makeWorkload(WorkloadId::DcganCifar10, options);
}

TEST(ProfilerTest, CollectsRecordsOverWholeRun)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 100 * kMsec;
    TpuPointProfiler profiler(sim, session, options);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    EXPECT_FALSE(profiler.running());
    EXPECT_GT(profiler.requestsIssued(), 2u);
    const std::vector<ProfileRecord> records =
        testutil::rowsOf(profiler.payloads());
    ASSERT_FALSE(records.empty());

    // Sequences ascend; windows tile the run.
    StepId max_step = 0;
    std::uint64_t total_events = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ProfileRecord &r = records[i];
        if (i) {
            EXPECT_GE(r.window_begin, records[i - 1].window_begin);
        }
        total_events += r.event_count;
        for (const auto &s : r.steps)
            max_step = std::max(max_step, s.step);
    }
    EXPECT_GT(total_events, 0u);
    // The profiler saw training through the last step.
    EXPECT_GE(max_step, w.schedule.train_steps);
}

TEST(ProfilerTest, AnalyzerFlagControlsRecordingThread)
{
    const RuntimeWorkload w = smallWorkload();
    auto run = [&](bool analyzer) {
        Simulator sim;
        TrainingSession session(sim, SessionConfig{}, w);
        TpuPointProfiler profiler(sim, session);
        profiler.start(analyzer);
        session.start(nullptr);
        sim.run();
        profiler.stop();
        return profiler.bytesRecorded();
    };
    EXPECT_GT(run(true), 0u);   // records streamed to storage
    EXPECT_EQ(run(false), 0u);  // host-memory buffering only
}

TEST(ProfilerTest, ProfilingAddsBoundedOverhead)
{
    const RuntimeWorkload w = smallWorkload(100);
    auto run = [&](bool profiled) {
        Simulator sim;
        TrainingSession session(sim, SessionConfig{}, w);
        std::unique_ptr<TpuPointProfiler> profiler;
        if (profiled) {
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session);
            profiler->start(true);
        }
        session.start(nullptr);
        sim.run();
        if (profiler)
            profiler->stop();
        return session.result().wall_time;
    };
    const SimTime plain = run(false);
    const SimTime traced = run(true);
    EXPECT_GE(traced, plain);
    // Section VII-C: overhead stays under 10%.
    EXPECT_LT(static_cast<double>(traced),
              1.10 * static_cast<double>(plain));
}

TEST(ProfilerTest, WriteRecordsRoundTrips)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    std::stringstream buffer;
    profiler.writeRecords(buffer);
    ASSERT_FALSE(profiler.payloads().empty());
    EXPECT_EQ(testutil::payloadsIn(buffer.str()), profiler.payloads());
}

TEST(ProfilerTest, StreamedProfileMatchesBufferedWriteRecords)
{
    const RuntimeWorkload w = smallWorkload();

    // Buffered path: retain every record, serialize at the end.
    Simulator buffered_sim;
    TrainingSession buffered_session(buffered_sim,
                                     SessionConfig{}, w);
    TpuPointProfiler buffered(buffered_sim, buffered_session);
    buffered.start(true);
    buffered_session.start(nullptr);
    buffered_sim.run();
    buffered.stop();
    std::stringstream buffered_bytes;
    buffered.writeRecords(buffered_bytes);

    // Streaming path: records go to the sink as harvested and are
    // never retained in host memory.
    Simulator streamed_sim;
    TrainingSession streamed_session(streamed_sim,
                                     SessionConfig{}, w);
    ProfilerOptions options;
    options.retain_records = false;
    TpuPointProfiler streamed(streamed_sim, streamed_session,
                              options);
    std::stringstream streamed_bytes;
    streamed.streamTo(streamed_bytes);
    streamed.start(true);
    streamed_session.start(nullptr);
    streamed_sim.run();
    streamed.stop();

    EXPECT_EQ(streamed.recordsRecorded(),
              buffered.recordsRecorded());

    // The streamed profile frames exactly the payloads the
    // buffered run retained, byte for byte, and so does the
    // buffered run's own container.
    EXPECT_EQ(testutil::payloadsIn(streamed_bytes.str()),
              buffered.payloads());
    EXPECT_EQ(streamed_bytes.str(), buffered_bytes.str());

    // Retention off means the in-memory accessors refuse.
    EXPECT_THROW(streamed.payloads(), std::runtime_error);
}

TEST(ProfilerTest, RetainedRecordsAreTheStreamedPayloadsDecoded)
{
    // Retention and streaming together: payloads() must be exactly
    // the payloads that reached the stream, byte for byte.
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 100 * kMsec;
    options.attempt = 3;
    TpuPointProfiler profiler(sim, session, options);
    std::stringstream bytes;
    profiler.streamTo(bytes);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    const std::vector<std::string> streamed =
        testutil::payloadsIn(bytes.str());
    EXPECT_GT(streamed.size(), 2u);
    EXPECT_EQ(streamed, profiler.payloads());
    for (const ProfileRecord &decoded : testutil::rowsOf(streamed))
        EXPECT_EQ(decoded.attempt, 3u);
}

TEST(ProfilerTest, EmptyWindowsLeaveSequenceGaps)
{
    // Windows with no events are not recorded, but each one still
    // used up a sequence number.
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 1 * kMsec;
    TpuPointProfiler profiler(sim, session, options);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    const std::vector<ProfileRecord> records =
        testutil::rowsOf(profiler.payloads());
    ASSERT_GT(records.size(), 1u);
    EXPECT_LT(records.size(), profiler.requestsIssued());
    bool gap = false;
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_GT(records[i].sequence, records[i - 1].sequence);
        gap |= records[i].sequence > records[i - 1].sequence + 1;
    }
    EXPECT_TRUE(gap || records.front().sequence > 0);
    EXPECT_LT(records.back().sequence, profiler.requestsIssued());
}

TEST(ProfilerTest, StreamToAfterStartIsRejected)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    std::stringstream sink;
    EXPECT_THROW(profiler.streamTo(sink), std::runtime_error);
}

TEST(ProfilerTest, DoubleStartPanics)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    EXPECT_THROW(profiler.start(true), std::logic_error);
}

TEST(ProfilerTest, StopDetachesInstrumentation)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    EXPECT_NE(session.traceHub().attached(), nullptr);
    EXPECT_GT(session.tpu().traceOverhead(), 0);
    profiler.stop();
    EXPECT_EQ(session.traceHub().attached(), nullptr);
    EXPECT_EQ(session.tpu().traceOverhead(), 0);
}

/** Events accepted into the process-wide counter so far. */
std::uint64_t
acceptedCount()
{
    return obs::MetricsRegistry::global()
        .counter("profiler.events_accepted")
        .value();
}

TEST(ProfilerTest, AcceptedCounterMatchesEventsAfterStop)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    const std::uint64_t before = acceptedCount();
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    EXPECT_GT(session.traceHub().totalEvents(), 0u);
    EXPECT_EQ(acceptedCount() - before,
              session.traceHub().totalEvents());
}

TEST(ProfilerTest, AcceptedCounterMatchesEventsOverTwoCycles)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload(100);
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    const std::uint64_t before = acceptedCount();
    // Profile two slices of the run with an unprofiled gap between
    // (buffered: a stopped profiler's stream is sealed).
    profiler.start(false);
    session.start(nullptr);
    sim.runUntil(300 * kMsec);
    profiler.stop();
    const std::uint64_t first = session.traceHub().totalEvents();
    sim.runUntil(600 * kMsec);
    const std::uint64_t gap =
        session.traceHub().totalEvents() - first;
    profiler.start(false);
    sim.run();
    profiler.stop();
    EXPECT_GT(first, 0u);
    EXPECT_GT(gap, 0u);
    EXPECT_EQ(acceptedCount() - before,
              session.traceHub().totalEvents() - gap);
}

TEST(ProfilerTest, AcceptedCounterFlushedWhenRunningProfilerDies)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload(100);
    TrainingSession session(sim, SessionConfig{}, w);
    const std::uint64_t before = acceptedCount();
    {
        ProfilerOptions options;
        options.profile_interval = 10 * kSec; // no harvest yet
        TpuPointProfiler profiler(sim, session, options);
        profiler.start(true);
        session.start(nullptr);
        sim.runUntil(300 * kMsec);
        EXPECT_EQ(profiler.requestsIssued(), 0u);
        EXPECT_TRUE(profiler.running());
    }
    EXPECT_GT(session.traceHub().totalEvents(), 0u);
    EXPECT_EQ(acceptedCount() - before,
              session.traceHub().totalEvents());
}

TEST(ProfilerTest, BadIntervalRejected)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 0;
    EXPECT_THROW(TpuPointProfiler(sim, session, options),
                 std::runtime_error);
}

} // namespace
} // namespace tpupoint
