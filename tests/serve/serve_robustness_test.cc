/**
 * @file Crash safety and overload hardening for the serve daemon
 * core. Pins: admission control (max-sessions / max-inflight-bytes
 * shed *new* work deterministically and re-admit it in discovery
 * order, never dropping an admitted stream), the quarantine
 * watchdog (repeated ingest errors isolate one session instead of
 * poisoning every poll), journal-backed restart recovery (a
 * rebuilt manager resumes every session from its committed offset
 * and produces byte-identical coverage, with no event lost or
 * double-counted), and status-publish hardening (a failed publish
 * is counted and retried, never a crash, never stale-temp litter).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "analyzer/detector.hh"
#include "core/io_faults.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "serve/journal.hh"
#include "serve/serve.hh"
#include "tests/obs/stderr_capture.hh"
#include "tests/serve/spool_fixture.hh"

namespace tpupoint {
namespace {

using testutil::analyzableStream;
using testutil::appendFile;
using testutil::ManagedSpool;
using testutil::readFile;
using testutil::tempDir;
using testutil::writeFile;

struct ServeRobustnessTest : ::testing::Test
{
    void SetUp() override
    {
        io::FaultInjector::global().reset();
        obs::MetricsRegistry::global().reset();
    }
    void TearDown() override
    {
        io::FaultInjector::global().reset();
    }
};

TEST_F(ServeRobustnessTest, MaxSessionsShedsAndReadmitsInOrder)
{
    ManagedSpool spool("robust_shed");
    spool.options.max_sessions = 1;
    spool.start();
    const std::string stream = analyzableStream();
    writeFile(spool.dir + "/aaa.tpp", stream);
    writeFile(spool.dir + "/bbb.tpp", stream);

    // aaa is admitted (and, being a sealed stream, runs all the
    // way to Finalized within the poll); bbb is refused at the
    // door with nothing ingested.
    spool.manager->poll();
    EXPECT_EQ(spool.status("aaa").state,
              serve::SessionState::Finalized);
    EXPECT_EQ(spool.status("bbb").state,
              serve::SessionState::Shed);
    EXPECT_EQ(spool.status("bbb").bytes, 0u); // Never started.

    // Shed is a live-ish state: a draining daemon must not exit
    // while parked work remains.
    serve::ServeStats stats = spool.manager->stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_FALSE(stats.drained());

    // The status document names the state for operators.
    const std::string sessions_json = spool.section("sessions");
    EXPECT_NE(sessions_json.find("\"shed\""), std::string::npos);
    std::string why;
    EXPECT_TRUE(validateJson(sessions_json, &why)) << why;

    spool.manager->poll(); // Capacity freed: bbb re-admitted.
    EXPECT_EQ(spool.status("bbb").state,
              serve::SessionState::Finalized);
    EXPECT_TRUE(spool.manager->stats().drained());

    // The shed session lost nothing: identical analysis outcome.
    EXPECT_EQ(spool.status("bbb").records,
              spool.status("aaa").records);
    EXPECT_EQ(spool.status("bbb").phases.size(),
              spool.status("aaa").phases.size());

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snapshot.counterOr("serve.sessions_shed"), 1u);
    EXPECT_EQ(snapshot.counterOr("serve.sessions_readmitted"),
              1u);
}

TEST_F(ServeRobustnessTest, MaxInflightBytesShedsNewSessions)
{
    ManagedSpool spool("robust_bytes");
    spool.options.max_inflight_bytes = 1;
    spool.start();
    const std::string stream = analyzableStream();
    // An unfinished stream holds its bytes in flight.
    writeFile(spool.dir + "/live.tpp",
              std::string_view(stream).substr(
                  0, stream.size() / 2));
    spool.manager->poll();
    EXPECT_EQ(spool.status("live").state,
              serve::SessionState::Ingesting);
    EXPECT_GT(spool.status("live").bytes, 0u);

    writeFile(spool.dir + "/next.tpp", stream);
    // The scan sheds `next` (live bytes are over budget) before
    // `live` idles out and finalizes later in the same poll.
    spool.now = 2000;
    spool.manager->poll();
    EXPECT_EQ(spool.status("next").state,
              serve::SessionState::Shed);
    EXPECT_EQ(spool.status("live").state,
              serve::SessionState::Finalized);
    spool.manager->poll(); // Budget freed: next runs to the end.
    EXPECT_EQ(spool.status("next").state,
              serve::SessionState::Finalized);
    EXPECT_TRUE(spool.manager->stats().drained());
}

TEST_F(ServeRobustnessTest, RepeatedIngestErrorsQuarantine)
{
    ManagedSpool spool("robust_quarantine");
    spool.options.quarantine_errors = 3;
    spool.start();
    writeFile(spool.dir + "/sick.tpp", analyzableStream());
    writeFile(spool.dir + "/healthy.tpp", analyzableStream());

    // Every spool read on this manager fails — but only `sick`
    // and `healthy` sample the site, and both error equally; to
    // isolate one session the fault targets the first N samples.
    // Simpler and deterministic: fail every read, watch both
    // sessions hit the watchdog without taking the manager down.
    ASSERT_TRUE(io::FaultInjector::global().configure(
        "serve.spool_read=eio@1+"));
    for (int i = 0; i < 3; ++i)
        spool.manager->poll();

    EXPECT_EQ(spool.status("sick").state,
              serve::SessionState::Quarantined);
    EXPECT_EQ(spool.status("healthy").state,
              serve::SessionState::Quarantined);
    EXPECT_NE(spool.status("sick").error.find("eio"),
              std::string::npos);

    const serve::ServeStats stats = spool.manager->stats();
    EXPECT_EQ(stats.quarantined, 2u);
    // Quarantine is terminal: the fleet counts as drained, and
    // further polls are cheap no-ops that do not re-touch the bad
    // sessions.
    EXPECT_TRUE(stats.drained());
    spool.manager->poll();
    EXPECT_EQ(io::FaultInjector::global().hits(
                  "serve.spool_read"),
              6u);

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(
        snapshot.counterOr("serve.sessions_quarantined"), 2u);
    EXPECT_EQ(snapshot.counterOr("serve.ingest_errors"), 6u);
}

/** A detector whose finalize fails the way a user error does. */
class FatalFinalizeDetector : public PhaseDetector
{
  public:
    explicit FatalFinalizeDetector(PhaseAlgorithm kind)
        : which(kind)
    {
    }

    PhaseAlgorithm algorithm() const override { return which; }
    const char *name() const override { return "fatal-finalize"; }
    bool needsFeatures() const override { return false; }
    void observeSteps(const std::vector<StepDelta> &) override {}
    void reset() override {}
    StreamingSnapshot snapshot() const override { return {}; }

    DetectorResult
    finalize(const StepTable &, const FeatureMatrix *,
             const AnalyzerOptions &, ThreadPool *) override
    {
        fatal("detector exploded at step ", 17);
    }

  private:
    PhaseAlgorithm which;
};

// Under TPUPOINT_LOG_FORMAT=json the daemon's stderr is JSONL and
// nothing else: a finalize that throws fatal() quarantines the
// session, and the one structured warning carries the reason. The
// error path itself prints nothing, so the reason is never doubled
// and no plain-text line breaks a log shipper's parse.
TEST_F(ServeRobustnessTest, FatalFinalizeLogsOneJsonReason)
{
    obs::FlightRecorder::global().disable();
    ManagedSpool spool("robust_fatal_finalize");
    const PhaseAlgorithm algorithm =
        spool.options.analyzer.algorithm;
    registerDetector(algorithm, [algorithm](const AnalyzerOptions &) {
        return std::make_unique<FatalFinalizeDetector>(algorithm);
    });
    spool.start();
    writeFile(spool.dir + "/doomed.tpp", analyzableStream());
    testutil::JsonStderrCapture captured;
    spool.manager->poll();
    const std::string text = captured.text();
    registerDetector(algorithm, nullptr);

    const std::string reason = "detector exploded at step 17";
    EXPECT_EQ(spool.status("doomed").state,
              serve::SessionState::Quarantined);
    EXPECT_NE(spool.status("doomed").error.find(reason),
              std::string::npos);
    const auto lines = captured.lines();
    ASSERT_FALSE(lines.empty());
    for (const std::string &line : lines) {
        std::string why;
        EXPECT_TRUE(validateJson(line, &why)) << line << ": "
                                              << why;
    }
    const std::size_t first = text.find(reason);
    EXPECT_NE(first, std::string::npos) << text;
    EXPECT_EQ(text.find(reason, first + 1), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"msg\":\"session quarantined\""),
              std::string::npos)
        << text;
}

TEST_F(ServeRobustnessTest, MissingSpoolWarnsOnceAsJson)
{
    obs::FlightRecorder::global().disable();
    ManagedSpool spool("robust_missing_spool");
    const std::string missing = spool.dir + "/no/such/dir";
    spool.options.spool_dir = missing;
    spool.start();
    testutil::JsonStderrCapture captured;
    for (int i = 0; i < 5; ++i) {
        spool.manager->poll();
        spool.now += 20;
    }
    const auto lines = captured.lines();
    EXPECT_TRUE(spool.manager->sessions().empty());
    ASSERT_EQ(lines.size(), 1u);
    std::string why;
    EXPECT_TRUE(validateJson(lines[0], &why)) << lines[0] << ": "
                                              << why;
    EXPECT_NE(lines[0].find("\"level\":\"warn\""), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find(missing), std::string::npos) << lines[0];
}

TEST_F(ServeRobustnessTest, OneTransientErrorDoesNotQuarantine)
{
    ManagedSpool spool("robust_transient");
    spool.options.quarantine_errors = 3;
    spool.start();
    writeFile(spool.dir + "/blip.tpp", analyzableStream());
    ASSERT_TRUE(io::FaultInjector::global().configure(
        "serve.spool_read=eio@1"));
    spool.manager->poll(); // Fails once...
    spool.manager->poll(); // ...then recovers and completes.
    spool.manager->poll();
    EXPECT_EQ(spool.status("blip").state,
              serve::SessionState::Finalized);
    EXPECT_GT(spool.status("blip").records, 0u);
}

TEST_F(ServeRobustnessTest, RestartRecoveryMatchesUninterrupted)
{
    const std::string stream = analyzableStream();

    // Baseline: one uninterrupted run over the same bytes.
    ManagedSpool baseline("robust_baseline");
    baseline.start();
    writeFile(baseline.dir + "/run.tpp", stream);
    baseline.manager->poll();
    baseline.manager->poll();
    ASSERT_EQ(baseline.status("run").state,
              serve::SessionState::Finalized);
    const std::string expected_coverage =
        baseline.section("coverage");
    const std::string expected_phases =
        baseline.section("phases");

    // Chaos: ingest half, "crash" (drop the manager cold), then
    // restart against the journal and let the rest stream in.
    ManagedSpool chaos("robust_chaos");
    chaos.options.journal_path = chaos.dir + "/serve.journal";
    chaos.start();
    writeFile(chaos.dir + "/run.tpp",
              std::string_view(stream).substr(0,
                                              stream.size() / 2));
    chaos.manager->poll();
    const serve::SessionStatus mid = chaos.status("run");
    ASSERT_GT(mid.records, 0u);
    ASSERT_FALSE(mid.complete);
    const std::uint64_t committed = mid.bytes;
    chaos.manager.reset(); // The "kill -9".

    appendFile(chaos.dir + "/run.tpp",
               std::string_view(stream).substr(stream.size() / 2));
    chaos.start();
    const serve::SessionStatus restored = chaos.status("run");
    EXPECT_TRUE(restored.recovered);
    EXPECT_EQ(restored.bytes, committed);
    EXPECT_EQ(restored.records, mid.records);
    EXPECT_EQ(restored.events, mid.events);
    EXPECT_EQ(chaos.manager->stats().recovered, 1u);

    chaos.manager->poll(); // Resumes *past* the committed offset.
    chaos.manager->poll();
    ASSERT_EQ(chaos.status("run").state,
              serve::SessionState::Finalized);

    // No event lost, none double-counted: byte-identical analysis.
    EXPECT_EQ(chaos.status("run").records,
              baseline.status("run").records);
    EXPECT_EQ(chaos.status("run").events,
              baseline.status("run").events);
    EXPECT_EQ(chaos.section("coverage"), expected_coverage);
    EXPECT_EQ(chaos.section("phases"), expected_phases);

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snapshot.counterOr("serve.sessions_recovered"),
              1u);
    // Replay charges no ingest metrics: the records counter holds
    // exactly one copy of every record across both processes.
    EXPECT_EQ(snapshot.counterOr("serve.records_ingested"),
              baseline.status("run").records +
                  chaos.status("run").records);
}

TEST_F(ServeRobustnessTest, FinalizedSessionsRecoverWithoutSpool)
{
    ManagedSpool first("robust_finalized");
    first.options.journal_path = first.dir + "/serve.journal";
    first.start();
    writeFile(first.dir + "/done.tpp", analyzableStream());
    first.manager->poll();
    first.manager->poll();
    ASSERT_EQ(first.status("done").state,
              serve::SessionState::Finalized);
    const std::string expected_phases = first.section("phases");
    first.manager.reset();

    // The spool file is gone; the journal alone answers queries.
    std::filesystem::remove(first.dir + "/done.tpp");
    first.start();
    const serve::SessionStatus restored = first.status("done");
    EXPECT_EQ(restored.state, serve::SessionState::Finalized);
    EXPECT_TRUE(restored.recovered);
    EXPECT_FALSE(restored.phases.empty());
    EXPECT_EQ(first.section("phases"), expected_phases);
    first.manager->poll();
    EXPECT_TRUE(first.manager->stats().drained());
}

TEST_F(ServeRobustnessTest, TamperedSpoolQuarantinesOnRecovery)
{
    ManagedSpool spool("robust_tampered");
    spool.options.journal_path = spool.dir + "/serve.journal";
    spool.start();
    const std::string stream = analyzableStream();
    writeFile(spool.dir + "/run.tpp",
              std::string_view(stream).substr(0,
                                              stream.size() / 2));
    spool.manager->poll();
    ASSERT_GT(spool.status("run").records, 0u);
    spool.manager.reset();

    // The spool file was rewritten behind the daemon's back: the
    // journaled offsets no longer describe these bytes. Recovery
    // must refuse to trust the mismatch, not serve wrong phases.
    writeFile(spool.dir + "/run.tpp", "not the same bytes at all");
    spool.start();
    EXPECT_EQ(spool.status("run").state,
              serve::SessionState::Quarantined);
    EXPECT_NE(spool.status("run").error.find("diverged"),
              std::string::npos);
}

TEST_F(ServeRobustnessTest, PublishFailureIsCountedNotFatal)
{
    ManagedSpool spool("robust_publish");
    spool.start();
    spool.manager->poll();
    const std::string status_path = spool.dir + "/status.json";

    ASSERT_TRUE(io::FaultInjector::global().configure(
        "serve.status_write=enospc,serve.status_rename=torn@1"));

    // Write fails: no stale temp, error counted, caller retries.
    std::string why;
    EXPECT_FALSE(
        serve::publishStatus(*spool.manager, status_path, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_FALSE(
        std::filesystem::exists(status_path + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(status_path));

    // Rename fails (the torn window): same guarantees.
    EXPECT_FALSE(
        serve::publishStatus(*spool.manager, status_path, &why));
    EXPECT_FALSE(
        std::filesystem::exists(status_path + ".tmp"));

    // Next tick, the disk behaves: the publish lands whole.
    EXPECT_TRUE(
        serve::publishStatus(*spool.manager, status_path, &why))
        << why;
    EXPECT_TRUE(validateJson(readFile(status_path), &why)) << why;

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(
        snapshot.counterOr("serve.status_publish_errors"), 2u);
}

TEST_F(ServeRobustnessTest, SweepRemovesStalePublishTemp)
{
    const std::string dir = tempDir("robust_sweep");
    const std::string status_path = dir + "/status.json";
    writeFile(status_path + ".tmp", "{\"half\":");
    EXPECT_TRUE(serve::sweepStalePublish(status_path));
    EXPECT_FALSE(
        std::filesystem::exists(status_path + ".tmp"));
    EXPECT_FALSE(serve::sweepStalePublish(status_path));
}

} // namespace
} // namespace tpupoint
