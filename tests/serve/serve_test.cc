/**
 * @file serve::SessionManager: the tpupoint-serve daemon core.
 * Pins the session lifecycle (discovering → ingesting → quiescent
 * → finalized → evicted) against an injected clock, the streaming
 * layer's "pending, no data yet" semantics for a live truncated
 * trace, per-session-labeled ingest metrics that concurrent
 * sessions cannot clobber, concurrent many-session ingest over the
 * shared pool (the interner/metrics race test the TSan suite
 * walks), and the status-document query path.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/json.hh"
#include "obs/metrics.hh"
#include "serve/serve.hh"
#include "tests/serve/spool_fixture.hh"

namespace tpupoint {
namespace {

using testutil::analyzableStream;
using testutil::ManagedSpool;
using testutil::writeFile;

TEST(ServeTest, CompleteStreamFinalizesImmediately)
{
    ManagedSpool spool("serve_complete");
    spool.start();
    writeFile(spool.dir + "/run.tpp", analyzableStream());
    spool.manager->poll(); // Discover + ingest to Complete.
    spool.manager->poll(); // Finalize.
    const auto &status = spool.status("run");
    EXPECT_EQ(status.state, serve::SessionState::Finalized);
    EXPECT_TRUE(status.complete);
    EXPECT_FALSE(status.pending);
    EXPECT_GT(status.records, 0u);
    EXPECT_GT(status.steps, 0u);
    EXPECT_FALSE(status.phases.empty());
    EXPECT_GT(status.top3_coverage, 0.0);
    EXPECT_TRUE(status.error.empty());
}

TEST(ServeTest, LiveTraceWithNoRecordsYetIsPendingNotEmpty)
{
    ManagedSpool spool("serve_pending");
    spool.start();
    const std::string bytes = analyzableStream();
    // Header plus a sliver of the first chunk: zero complete
    // records, but the writer may still be appending.
    writeFile(spool.dir + "/young.tpp",
              std::string_view(bytes).substr(0, 14));
    spool.manager->poll();
    const auto &status = spool.status("young");
    EXPECT_TRUE(status.pending);
    EXPECT_EQ(status.records, 0u);
    EXPECT_TRUE(status.error.empty());
    // The header's bytes count as progress, so the session is
    // already Ingesting — but still pending, never Empty.
    EXPECT_EQ(status.state, serve::SessionState::Ingesting);
}

TEST(ServeTest, QuiescentStreamFinalizesAfterIdleTtl)
{
    ManagedSpool spool("serve_quiescent");
    spool.start();
    const std::string bytes = analyzableStream();
    // Most of the stream, cut mid-chunk, never completed.
    writeFile(spool.dir + "/dead.tpp",
              std::string_view(bytes).substr(
                  0, bytes.size() * 2 / 3 + 3));
    spool.manager->poll();
    EXPECT_EQ(spool.status("dead").state,
              serve::SessionState::Ingesting);

    // Writer stays silent past the idle TTL: declared dead,
    // analyzed with what salvage recovered.
    spool.now += spool.options.idle_ttl_ms + 1;
    spool.manager->poll(); // Notices quiescence.
    spool.manager->poll(); // Finalizes.
    const auto &status = spool.status("dead");
    EXPECT_EQ(status.state, serve::SessionState::Finalized);
    EXPECT_FALSE(status.pending);
    EXPECT_GT(status.records, 0u);
    EXPECT_GT(status.steps, 0u);
}

TEST(ServeTest, RecordlessStreamDeclaredDeadReportsNoRecords)
{
    ManagedSpool spool("serve_recordless");
    spool.start();
    const std::string bytes = analyzableStream();
    writeFile(spool.dir + "/empty.tpp",
              std::string_view(bytes).substr(0, 10));
    spool.manager->poll();
    EXPECT_TRUE(spool.status("empty").pending);
    spool.now += spool.options.idle_ttl_ms + 1;
    spool.manager->poll();
    spool.manager->poll();
    const auto &status = spool.status("empty");
    EXPECT_EQ(status.state, serve::SessionState::Finalized);
    // Once declared dead, "pending" resolves to a final verdict.
    EXPECT_FALSE(status.pending);
    EXPECT_EQ(status.records, 0u);
    EXPECT_EQ(status.error, "stream ended with no records");
}

TEST(ServeTest, EvictionReleasesResultKeepsSummary)
{
    ManagedSpool spool("serve_evict");
    spool.options.evict_ttl_ms = 5000;
    spool.start();
    writeFile(spool.dir + "/run.tpp", analyzableStream());
    spool.manager->poll();
    spool.manager->poll();
    ASSERT_EQ(spool.status("run").state,
              serve::SessionState::Finalized);
    const auto summary = spool.status("run").phases;
    ASSERT_FALSE(summary.empty());

    spool.now += spool.options.evict_ttl_ms + 1;
    spool.manager->poll();
    const auto &status = spool.status("run");
    EXPECT_EQ(status.state, serve::SessionState::Evicted);
    // The compact summary survives eviction for queries.
    EXPECT_EQ(status.phases.size(), summary.size());
    EXPECT_GT(status.top3_coverage, 0.0);

    const serve::ServeStats stats = spool.manager->stats();
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_TRUE(stats.drained());
}

TEST(ServeTest, PerSessionIngestMetricsDoNotClobber)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.reset();
    ManagedSpool spool("serve_metrics");
    spool.start();
    const std::string bytes = analyzableStream();
    writeFile(spool.dir + "/alpha.tpp", bytes);
    // Different size so equal rates are unlikely even in theory.
    writeFile(spool.dir + "/beta.tpp",
              std::string_view(bytes).substr(
                  0, bytes.size() / 2 + 5));
    spool.manager->poll();

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    const auto alpha = snapshot.gauges.find(
        "analyzer.ingest_bytes_per_sec{session=alpha}");
    const auto beta = snapshot.gauges.find(
        "analyzer.ingest_bytes_per_sec{session=beta}");
    ASSERT_NE(alpha, snapshot.gauges.end());
    ASSERT_NE(beta, snapshot.gauges.end());
    EXPECT_GT(alpha->second, 0);
    EXPECT_GT(beta->second, 0);
    // Both passes also landed in the aggregate histogram.
    const auto aggregate = snapshot.histograms.find(
        "analyzer.ingest_pass_bytes_per_sec");
    ASSERT_NE(aggregate, snapshot.histograms.end());
    EXPECT_GE(aggregate->second.count, 2u);
    // The per-chunk ingest latency histogram saw every chunk.
    const auto latency =
        snapshot.histograms.find("serve.ingest_chunk_us");
    ASSERT_NE(latency, snapshot.histograms.end());
    EXPECT_GT(latency->second.count, 0u);
}

// Many sessions ingesting concurrently on a real pool: every
// worker interns op names into the global StringInterner and
// observes shared registry instruments at once. The TSan suite
// runs this against the thread sanitizer.
TEST(ServeTest, ConcurrentSessionsIngestSafely)
{
    ManagedSpool spool("serve_concurrent");
    spool.options.threads = 8;
    spool.options.idle_ttl_ms = 0;
    spool.start();
    const std::string bytes = analyzableStream();
    constexpr int kSessions = 24;
    for (int i = 0; i < kSessions; ++i)
        writeFile(spool.dir + "/s" + std::to_string(i) + ".tpp",
                  bytes);
    int polls = 0;
    while (!spool.manager->stats().drained() && polls < 200) {
        spool.manager->poll();
        spool.now += 10;
        ++polls;
    }
    const serve::ServeStats stats = spool.manager->stats();
    EXPECT_EQ(stats.sessions,
              static_cast<std::size_t>(kSessions));
    EXPECT_EQ(stats.finalized + stats.evicted,
              static_cast<std::size_t>(kSessions));
    for (const auto &status : spool.manager->sessions()) {
        EXPECT_TRUE(status.complete);
        EXPECT_GT(status.steps, 0u);
        EXPECT_TRUE(status.error.empty()) << status.error;
    }
}

TEST(ServeTest, FinalizesAreCappedPerPoll)
{
    ManagedSpool spool("serve_capped");
    spool.options.max_finalizes_per_poll = 1;
    spool.start();
    const std::string bytes = analyzableStream();
    for (int i = 0; i < 3; ++i)
        writeFile(spool.dir + "/s" + std::to_string(i) + ".tpp",
                  bytes);
    // Each poll ingests then finalizes at most one session.
    spool.manager->poll();
    EXPECT_EQ(spool.manager->stats().finalized, 1u);
    spool.manager->poll();
    EXPECT_EQ(spool.manager->stats().finalized, 2u);
    spool.manager->poll();
    EXPECT_EQ(spool.manager->stats().finalized, 3u);
}

TEST(ServeTest, StatusJsonValidatesAndSectionsExtract)
{
    ManagedSpool spool("serve_status");
    spool.start();
    writeFile(spool.dir + "/run.tpp", analyzableStream());
    spool.manager->poll();
    spool.manager->poll();

    std::ostringstream out;
    spool.manager->writeStatusJson(out);
    const std::string status = out.str();
    std::string why;
    EXPECT_TRUE(validateJson(status, &why)) << why;

    for (const char *section :
         {"sessions", "phases", "coverage", "stats"}) {
        std::string value;
        ASSERT_TRUE(serve::extractStatusSection(status, section,
                                                &value))
            << section;
        EXPECT_TRUE(validateJson(value, &why))
            << section << ": " << why;
    }
    std::string value;
    EXPECT_FALSE(
        serve::extractStatusSection(status, "nope", &value));

    // The phases section names the finalized session.
    ASSERT_TRUE(
        serve::extractStatusSection(status, "phases", &value));
    EXPECT_NE(value.find("\"run\""), std::string::npos);
}

// A writer mid-stream: live phases publish while the session is
// still ingesting, marked inexact and staleness-stamped, then the
// finalize pass replaces them with the exact answer.
TEST(ServeTest, LivePhasesPublishMidIngest)
{
    ManagedSpool spool("serve_live_phases");
    spool.start();
    const std::string bytes = analyzableStream();
    // Most of the stream, cut mid-chunk: ingest makes progress
    // but the session stays live.
    writeFile(spool.dir + "/grow.tpp",
              std::string_view(bytes).substr(
                  0, bytes.size() * 2 / 3));
    spool.manager->poll();

    const auto mid = spool.status("grow");
    ASSERT_EQ(mid.state, serve::SessionState::Ingesting);
    EXPECT_EQ(mid.detector, "OLS");
    EXPECT_FALSE(mid.phases.empty());
    EXPECT_FALSE(mid.phases_exact);
    EXPECT_GT(mid.steps_behind, 0u);
    EXPECT_GT(mid.top3_coverage, 0.0);

    // The status document answers `--query phases` for the live
    // session, carrying the staleness fields.
    std::ostringstream out;
    spool.manager->writeStatusJson(out);
    std::string section;
    ASSERT_TRUE(serve::extractStatusSection(out.str(), "phases",
                                            &section));
    EXPECT_NE(section.find("\"grow\""), std::string::npos);
    EXPECT_NE(section.find("steps_behind"), std::string::npos);
    std::string coverage;
    ASSERT_TRUE(serve::extractStatusSection(out.str(), "coverage",
                                            &coverage));
    EXPECT_NE(coverage.find("\"grow\""), std::string::npos);

    // The writer finishes; finalize supersedes the snapshot with
    // the exact batch answer and the staleness drains to zero.
    writeFile(spool.dir + "/grow.tpp", bytes);
    spool.manager->poll(); // Ingest the rest (complete).
    spool.manager->poll(); // Finalize.
    const auto &fin = spool.status("grow");
    EXPECT_EQ(fin.state, serve::SessionState::Finalized);
    EXPECT_TRUE(fin.phases_exact);
    EXPECT_EQ(fin.steps_behind, 0u);
    EXPECT_FALSE(fin.phases.empty());
    EXPECT_GT(fin.top3_coverage, 0.0);
}

// --no-live-phases: mid-ingest queries stay quiet, finalize-only
// answers exactly as before the streaming path existed.
TEST(ServeTest, LivePhasesDisabledKeepsMidIngestQuiet)
{
    ManagedSpool spool("serve_no_live");
    spool.options.live_phases = false;
    spool.start();
    const std::string bytes = analyzableStream();
    writeFile(spool.dir + "/still.tpp",
              std::string_view(bytes).substr(
                  0, bytes.size() * 2 / 3));
    spool.manager->poll();
    const auto mid = spool.status("still");
    ASSERT_EQ(mid.state, serve::SessionState::Ingesting);
    EXPECT_TRUE(mid.phases.empty());
    EXPECT_EQ(mid.top3_coverage, 0.0);

    writeFile(spool.dir + "/still.tpp", bytes);
    spool.manager->poll();
    spool.manager->poll();
    const auto &fin = spool.status("still");
    EXPECT_EQ(fin.state, serve::SessionState::Finalized);
    EXPECT_TRUE(fin.phases_exact);
    EXPECT_FALSE(fin.phases.empty());
}

// Restart mid-ingest: recovery replays the spool through the
// streaming session and re-derives the same live snapshot the
// lost process had published.
TEST(ServeTest, RestartMidIngestRecoversLivePhases)
{
    ManagedSpool spool("serve_live_restart");
    spool.options.journal_path = spool.dir + "/serve.journal";
    spool.start();
    const std::string bytes = analyzableStream();
    writeFile(spool.dir + "/grow.tpp",
              std::string_view(bytes).substr(
                  0, bytes.size() * 2 / 3));
    spool.manager->poll();
    const auto before = spool.status("grow");
    ASSERT_EQ(before.state, serve::SessionState::Ingesting);
    ASSERT_FALSE(before.phases.empty());
    ASSERT_TRUE(spool.manager->commitJournal());

    // "Crash" and restart against the same spool + journal.
    spool.start();
    const auto after = spool.status("grow");
    EXPECT_EQ(after.state, serve::SessionState::Ingesting);
    EXPECT_EQ(after.detector, "OLS");
    EXPECT_FALSE(after.phases_exact);
    ASSERT_EQ(after.phases.size(), before.phases.size());
    for (std::size_t i = 0; i < after.phases.size(); ++i) {
        EXPECT_EQ(after.phases[i].first_step,
                  before.phases[i].first_step);
        EXPECT_EQ(after.phases[i].last_step,
                  before.phases[i].last_step);
        EXPECT_EQ(after.phases[i].steps, before.phases[i].steps);
    }
    EXPECT_DOUBLE_EQ(after.top3_coverage, before.top3_coverage);

    // The recovered session still finalizes normally.
    writeFile(spool.dir + "/grow.tpp", bytes);
    spool.manager->poll();
    spool.manager->poll();
    const auto &fin = spool.status("grow");
    EXPECT_EQ(fin.state, serve::SessionState::Finalized);
    EXPECT_TRUE(fin.phases_exact);
    EXPECT_EQ(fin.steps_behind, 0u);
}

TEST(ServeTest, ExtractSectionSurvivesTrickyStrings)
{
    const std::string doc =
        "{\"a\":\"s{[\\\"x\\\"]}\",\"list\":[1,2,{\"k\":\"}\"}],"
        "\"b\":{\"n\":-1.5e3,\"t\":true}}";
    std::string value;
    ASSERT_TRUE(serve::extractStatusSection(doc, "list", &value));
    EXPECT_EQ(value, "[1,2,{\"k\":\"}\"}]");
    ASSERT_TRUE(serve::extractStatusSection(doc, "b", &value));
    EXPECT_EQ(value, "{\"n\":-1.5e3,\"t\":true}");
    ASSERT_TRUE(serve::extractStatusSection(doc, "a", &value));
    EXPECT_EQ(value, "\"s{[\\\"x\\\"]}\"");
    EXPECT_FALSE(serve::extractStatusSection(doc, "n", &value));
}

} // namespace
} // namespace tpupoint
